import math

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtri

import vriwae.rng as vrng
from vriwae.bounds import bound_mc, gap_mc
from vriwae.experiments import make_linear_gaussian, make_toy
from vriwae.gradients import (_contract, _grad_pass, _softmax_last, fd_grad_from_eps,
                              fd_grad_oracle, grad_mean_se, grad_samples_from_eps,
                              h_coefficients, snr_floor, snr_sweep)
from vriwae.models import GaussianToy, LinearGaussian
from vriwae.rng import make_stream, standard_normal, uniform
from vriwae.weights import _MeanSE, _weight_rows


def toy(d=3, theta=0.0, phi=0.5):
    return GaussianToy(d=d, theta=np.full(d, theta), phi=np.full(d, phi))


def lingauss(d=3, seed=0):
    rng = np.random.default_rng(seed)
    return LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                          b=rng.normal(size=d), x=rng.normal(size=d))


# --------------------------------------------------------------------------
# h coefficients
# --------------------------------------------------------------------------

def test_h_uniform():
    for n in (2, 5, 8):
        s = np.full(n, 1.0 / n)
        for alpha in (0.0, 0.4, 1.0):
            expected = alpha / n + (1.0 - alpha) / n**2
            assert np.allclose(h_coefficients(s, alpha), expected, atol=1e-14)


def test_h_hand_value():
    h = h_coefficients(np.array([0.75, 0.25]), 0.5)
    assert np.allclose(h, [0.65625, 0.15625], atol=1e-14)


def test_h_degenerate():
    s = np.zeros(4)
    s[0] = 1.0
    assert np.allclose(h_coefficients(s, 0.0), s, atol=1e-14)


def test_h_sum_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        s = rng.dirichlet(np.ones(n))
        for alpha in (0.0, 0.3, 0.8, 1.0):
            h = h_coefficients(s, alpha)
            total = h.sum()
            assert alpha + (1.0 - alpha) / n - 1e-12 <= total <= 1.0 + 1e-12


def test_h_rejects_non_probability():
    with pytest.raises(ValueError):
        h_coefficients(np.array([0.5, 0.6]), 0.3)
    with pytest.raises(ValueError):
        h_coefficients(np.array([-0.1, 1.1]), 0.3)


# --------------------------------------------------------------------------
# single-draw estimators
# --------------------------------------------------------------------------

def test_single_sample_is_score_at_n1():
    # with one sample the softmax weight is 1 for every alpha
    model = toy()
    for alpha in (0.0, 0.5, 1.0):
        eps = standard_normal(make_stream(0, 0), (1, 1, model.d))
        _, g_phi = grad_samples_from_eps(model, eps, alpha, "rep")
        z = model.reparam(eps[0])
        _, d_total, _ = model.score_grads(eps[0], z)
        assert np.allclose(g_phi[0], d_total[0], atol=1e-12)


def test_pinned_noise_hand_value():
    # toy d=1, theta=0, phi=1, eps=0, N=1: grad_phi = -(phi + eps - theta) = -1
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    eps = np.zeros((1, 1, 1))
    g_theta, g_phi = grad_samples_from_eps(model, eps, 0.3, "rep")
    assert g_phi[0, 0] == pytest.approx(-1.0, abs=1e-12)
    g_theta2, g_phi2 = grad_samples_from_eps(model, eps, 0.3, "drep")
    assert g_phi2[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert np.array_equal(g_theta, g_theta2)


def test_theta_block_identical_rep_drep():
    model = lingauss(4)
    eps = standard_normal(make_stream(5, 0), (1, 8, model.d))
    rep = grad_samples_from_eps(model, eps, 0.4, "rep")
    drep = grad_samples_from_eps(model, eps, 0.4, "drep")
    assert np.array_equal(rep[0], drep[0])
    # the kind selects the estimator of the phi block
    _, _, g_rep, g_drep = _grad_pass(model, eps, 0.4)
    assert np.array_equal(rep[1], g_rep) and np.array_equal(drep[1], g_drep)


def test_alpha_one_path_uniform_weights():
    # at alpha=1 both estimators average the scores uniformly
    model = toy(d=2)
    eps = standard_normal(make_stream(7, 0), (1, 6, 2))
    z = model.reparam(eps)
    d_theta, d_total, d_stopped = model.score_grads(eps, z)
    g_theta, g_phi = grad_samples_from_eps(model, eps, 1.0, "rep")
    assert np.allclose(g_phi[0], d_total[0].mean(axis=0), atol=1e-12)
    _, g_phi_d = grad_samples_from_eps(model, eps, 1.0, "drep")
    assert np.allclose(g_phi_d[0], d_stopped[0].mean(axis=0), atol=1e-12)


def test_drep_alpha_zero_squared_weights():
    model = toy(d=2)
    eps = standard_normal(make_stream(8, 0), (1, 5, 2))
    z = model.reparam(eps)
    lw = model.log_unnormalized_weight(z)
    s = np.exp(lw - lw.max(axis=-1, keepdims=True))
    s = s / s.sum(axis=-1, keepdims=True)
    _, _, d_stopped = model.score_grads(eps, z)
    _, g_phi = grad_samples_from_eps(model, eps, 0.0, "drep")
    expected = np.einsum("rn,rnk->rk", s**2, d_stopped)
    assert np.allclose(g_phi, expected, atol=1e-12)


def test_alpha_domain():
    eps = standard_normal(make_stream(0, 0), (1, 2, 3))
    with pytest.raises(ValueError):
        grad_samples_from_eps(toy(), eps, -0.2, "rep")
    with pytest.raises(ValueError):
        grad_samples_from_eps(toy(), eps, 1.2, "drep")


# --------------------------------------------------------------------------
# eps-path kernel against the z-path: log-weights of reparam(eps) and the
# materialized scores
# --------------------------------------------------------------------------

def _materialized_grads(model, eps, alpha):
    """Oracle: the weighted sums over the materialized (..., N, P) scores at
    z = reparam(eps)."""
    z = model.reparam(eps)
    s = _softmax_last((1.0 - alpha) * model.log_unnormalized_weight(z))
    h = alpha * s + (1.0 - alpha) * s * s
    d_theta, d_total, d_stopped = model.score_grads(eps, z)
    return (np.einsum("...n,...nk->...k", s, d_theta),
            np.einsum("...n,...nk->...k", s, d_total),
            np.einsum("...n,...nk->...k", h, d_stopped))


@pytest.mark.parametrize("make_model", [lambda: toy(d=3, theta=0.2, phi=0.9),
                                        lambda: lingauss(3, seed=4)],
                         ids=["toy", "lingauss"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("shape", [(7, 1), (7, 6), (7, 8), (7, 100),
                                   (5, 3, 1), (5, 3, 6), (5, 3, 8), (5, 3, 100)],
                         ids=["R,N=1", "R,N=6", "R,N=8", "R,N=100",
                              "R,M,N=1", "R,M,N=6", "R,M,N=8", "R,M,N=100"])
def test_contracted_kernel_matches_materialized_scores(make_model, alpha, shape):
    # _grad_pass reads the log-weights and the sums of z off the quadratic in
    # eps; the z-path sums the same terms in another order, so they agree to
    # rounding
    model = make_model()
    eps = standard_normal(make_stream(30, 0), (*shape, model.d))
    lw, g_theta, g_rep, g_drep = _grad_pass(model, eps, alpha)
    want_lw = model.log_unnormalized_weight(model.reparam(eps))
    np.testing.assert_allclose(lw, want_lw, rtol=1e-12, atol=1e-12 * np.abs(want_lw).max())
    for got, want in zip((g_theta, g_rep, g_drep), _materialized_grads(model, eps, alpha)):
        assert got.shape == want.shape == (*shape[:-1], want.shape[-1])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    rep = grad_samples_from_eps(model, eps, alpha, "rep")
    drep = grad_samples_from_eps(model, eps, alpha, "drep")
    assert np.array_equal(rep[0], drep[0])
    assert np.array_equal(rep[1], g_rep) and np.array_equal(drep[1], g_drep)


# --------------------------------------------------------------------------
# toy gradients from their exact conditional law against the eps path
# --------------------------------------------------------------------------

@pytest.mark.parametrize("theta, phi", [(0.0, 1.0), (0.3, -0.5)], ids=["phi>theta", "phi<theta"])
def test_toy_conditional_pass_matches_eps_path_at_d1(theta, phi):
    # at d = 1 there is nothing orthogonal to u, so eps_j = u * S_j is the
    # whole draw and both paths see the same samples
    model = GaussianToy(d=1, theta=np.full(1, theta), phi=np.full(1, phi))
    u = np.sign(theta - phi)
    for n in (1, 8, 100):
        words = uniform(make_stream(3, 0), (50, n + 2))
        normals = ndtri(words)
        eps = (u * -normals[:, :n])[..., None]
        z = model.reparam(eps)
        for alpha in (0.0, 0.5, 1.0):
            lw, w_sum, wz = model.train_sums(normals, alpha)
            assert np.array_equal(lw, model.log_weight_law(words[:, :n, None]))
            w = _weight_rows(model.log_unnormalized_weight(z), alpha)
            np.testing.assert_allclose(w_sum, w.sum(axis=-1, keepdims=True), rtol=1e-12)
            np.testing.assert_allclose(wz, w @ z, rtol=1e-12, atol=1e-12 * np.abs(z).max())
            got = (lw, *_contract(model, w_sum, wz))
            want = _grad_pass(model, eps, alpha)
            for g, h in zip(got, want):
                np.testing.assert_allclose(g, h, rtol=1e-12, atol=1e-12 * np.abs(h).max())


def _toy_stats(model, w_sum, wz):
    """Per-sample statistics (theta, rep phi, drep phi gradients, sum h z).

    The toy's stopped phi score is constant in z, so sum h z enters no toy
    gradient; it is compared on its own, with its covariance against sum s z.
    """
    g_theta, g_rep, g_drep = _contract(model, w_sum, wz)
    return np.concatenate([g_theta, g_rep, g_drep, wz[..., 1, :]], axis=-1)


def _ks_pvalues(x, y):
    """Asymptotic two-sample Kolmogorov-Smirnov p-value per column, for
    samples of equal size."""
    r = x.shape[0]
    order = np.argsort(np.concatenate([x, y]).T, axis=-1)   # one row per column
    steps = np.where(order < r, 1, -1)
    stat = np.abs(np.cumsum(steps, axis=-1)).max(axis=-1) / r
    return kolmogorov(stat * math.sqrt(r / 2.0))


def _cov_and_se(x):
    """Sample covariance of the columns of x, and the standard error of
    each entry from the spread of the centred products."""
    a = x - x.mean(axis=0)
    prod = a[:, :, None] * a[:, None, :]
    return prod.mean(axis=0), prod.std(axis=0) / math.sqrt(x.shape[0])


_ALPHAS = (0.0, 0.5, 1.0)


@pytest.mark.parametrize("d, n, b", [(5, 1, 1.5), (5, 8, 1.5), (5, 100, 1.5),
                                     (1000, 1, 1.5), (1000, 8, 1.5), (1000, 100, 1.5),
                                     (5, 8, 0.0)],
                         ids=["d5-N1", "d5-N8", "d5-N100", "d1000-N1", "d1000-N8",
                              "d1000-N100", "d5-N8-B0"])
def test_toy_conditional_law_matches_eps_path(d, n, b):
    # theta - phi points along a random direction u with norm B
    rng = np.random.default_rng(d + n)
    phi = rng.normal(size=d)
    direction = rng.normal(size=d)
    model = GaussianToy(d=d, theta=phi + b * direction / np.linalg.norm(direction), phi=phi)
    r = min(20_000, 50_000_000 // (n * d), 4_000_000 // (4 * d))
    eps_stats = {a: np.empty((r, 4 * d)) for a in _ALPHAS}
    stream = make_stream(60, d * 1000 + n)
    for start, stop in vrng._replicate_chunks(r, n * d):
        z = model.reparam(standard_normal(stream, (stop - start, n, d)))
        lw = model.log_unnormalized_weight(z)
        for a in _ALPHAS:
            w = _weight_rows(lw, a)
            eps_stats[a][start:stop] = _toy_stats(model, w.sum(axis=-1, keepdims=True), w @ z)
    normals = standard_normal(make_stream(61, d * 1000 + n), (r, n + 2 * d))

    k = min(d, 5)          # covariance over the first k coordinates of each block
    cov_cols = np.concatenate([np.arange(k) + j * d for j in range(4)])
    tests = len(_ALPHAS) * 4 * d
    z_crit = float(ndtri(1.0 - 1e-4 / (2.0 * (tests + len(_ALPHAS) * len(cov_cols) ** 2))))
    for a in _ALPHAS:
        x = _toy_stats(model, *model.train_sums(normals, a)[1:])
        y = eps_stats[a]
        const = (x.min(axis=0) == x.max(axis=0)) & (y.min(axis=0) == y.max(axis=0))
        np.testing.assert_allclose(x[0, const], y[0, const], rtol=1e-12, atol=1e-12)
        p = _ks_pvalues(x[:, ~const], y[:, ~const])
        assert p.min() > 1e-4 / tests, (a, int(np.argmin(p)), p.min())
        se = np.sqrt(x.var(axis=0, ddof=1) / r + y.var(axis=0, ddof=1) / r)
        assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) <= z_crit * se + 1e-12), a
        cx, sx = _cov_and_se(x[:, cov_cols])
        cy, sy = _cov_and_se(y[:, cov_cols])
        assert np.all(np.abs(cx - cy) <= z_crit * np.sqrt(sx**2 + sy**2) + 1e-12), a


# --------------------------------------------------------------------------
# finite-difference oracle
# --------------------------------------------------------------------------

def test_fd_quadratic_exact():
    # central differences are exact on quadratics up to rounding
    model = toy(d=2)
    eps = standard_normal(make_stream(9, 0), (64, 4, 2))
    g_theta, g_phi = fd_grad_from_eps(model, eps, 1.0, 1e-4)
    # alpha=1 bound is mean of log-weights: exact gradients available
    z = model.reparam(eps)
    d_theta, d_total, _ = model.score_grads(eps, z)
    assert np.allclose(g_theta, d_theta.mean(axis=1), atol=1e-6)
    assert np.allclose(g_phi, d_total.mean(axis=1), atol=1e-6)


def test_fd_step_second_order():
    # halving the step shrinks the bias ~4x on a non-quadratic objective
    model = lingauss(2, seed=3)
    eps = standard_normal(make_stream(10, 0), (1, 4, 2))
    exact_t, exact_p = grad_samples_from_eps(model, eps, 0.3, "rep")
    errs = []
    for step in (0.2, 0.1):
        g_t, g_p = fd_grad_from_eps(model, eps, 0.3, step)
        errs.append(np.max(np.abs(np.concatenate([g_t - exact_t, g_p - exact_p], axis=1))))
    assert errs[1] < errs[0] / 2.5


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_grad_from_eps(toy(), np.zeros((1, 1, 3)), 0.0, 0.0)


def test_fd_oracle_matches_rep_mean():
    model = toy(d=2, theta=0.0, phi=0.7)
    rep = grad_mean_se(model, 0.3, 4, 20_000, make_stream(11, 0), "rep")
    fd = fd_grad_oracle(model, 0.3, 4, 1e-3, 20_000, make_stream(11, 0))
    for blk in ("theta", "phi"):
        ma, sa = getattr(rep, f"{blk}_mean"), getattr(rep, f"{blk}_se")
        mb, sb = getattr(fd, f"{blk}_mean"), getattr(fd, f"{blk}_se")
        assert np.all(np.abs(ma - mb) <= 3.0 * np.sqrt(sa**2 + sb**2))


def test_matched_params_gradient_near_zero():
    # theta = phi: the rep phi-gradient has mean zero by symmetry
    model = toy(d=3, theta=0.5, phi=0.5)
    est = grad_mean_se(model, 0.0, 4, 20_000, make_stream(12, 0), "rep")
    assert np.all(np.abs(est.phi_mean) <= 3.0 * est.phi_se)


# --------------------------------------------------------------------------
# SNR harness
# --------------------------------------------------------------------------

def test_snr_planted_slope():
    # synthetic estimator: mean fixed, std ~ 1/sqrt(N) -> slope 1/2

    class Synthetic:
        d = 1
        theta_dim = 1
        phi_dim = 1

        def score_affine(self):
            # the same scores 1 + z, z = eps: mean 1, unit variance per sample
            one = (np.ones(1), np.ones(1))
            return one, one, one

        def log_weight_quadratic(self):
            return np.zeros(1), 1.0, 0.0, np.zeros(1), 0.0  # z = eps, log w = 0: uniform softmax

    n_grid = [4, 16, 64, 256]
    report = snr_sweep(Synthetic(), 0.0, 1, n_grid, 4000, 1, make_stream(13, 0))
    for key in (("rep", "theta"), ("rep", "phi")):
        assert report.blocks[key].slope == pytest.approx(0.5, abs=0.02)
        assert not report.blocks[key].at_floor.any()  # SNR sqrt(N), far above the floor


def test_snr_zero_variance_sentinel():

    class Constant:
        d = 1
        theta_dim = 1
        phi_dim = 1

        def score_affine(self):
            one = (np.ones(1), np.zeros(1))  # the same scores: constant 1
            return one, one, one

        def log_weight_quadratic(self):
            return np.zeros(1), 1.0, 0.0, np.zeros(1), 0.0  # z = eps, log w = 0

    report = snr_sweep(Constant(), 0.0, 1, [2, 4], 200, 1, make_stream(14, 0))
    blk = report.blocks[("rep", "theta")]
    assert np.all(np.isinf(blk.per_coordinate_snr))
    assert math.isnan(blk.slope)
    assert not blk.at_floor.any()  # infinite SNR is not at the floor


def test_snr_floor_flag_on_zero_mean_theta_block():
    # a toy at theta = phi has a zero-mean theta gradient, so its SNR reads
    # the floor sqrt(2/(pi R)) itself
    rep = snr_sweep(toy(d=10, theta=0.5, phi=0.5), 0.0, 1, [2, 8], 400, 10, make_stream(15, 0))
    blk = rep.blocks[("rep", "theta")]
    assert blk.at_floor.all()
    assert np.all(blk.mean_snr < 2.0 * snr_floor(400))
    assert snr_floor(400) == pytest.approx(math.sqrt(2.0 / (math.pi * 400)))


def test_snr_sweep_independent_of_chunk_size(monkeypatch):
    # draws come per replicate from one sequential stream, so any chunk size
    # gives the same samples and the same report, to the bit
    model = lingauss(3, seed=2)
    reports = []
    for target in (1_000_000, 50):
        monkeypatch.setattr(vrng, "_CHUNK_TARGET", target)
        reports.append(snr_sweep(model, 0.3, 2, [2, 8], 150, 4, make_stream(16, 0)))
    a, b = reports
    assert a.blocks.keys() == b.blocks.keys()
    for key in a.blocks:
        for attr in ("per_coordinate_snr", "mean_snr", "at_floor"):
            assert np.array_equal(getattr(a.blocks[key], attr), getattr(b.blocks[key], attr))
        assert a.blocks[key].slope == b.blocks[key].slope


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("make_model", [lambda: make_toy(3),
                                        lambda: make_linear_gaussian(3, 0.5, 0)[0]],
                         ids=["toy", "lingauss"])
def test_snr_grows_like_sqrt_m(make_model, alpha):
    # each replicate averages M i.i.d. gradient draws, so at fixed N the SNR
    # of every block grows like sqrt(M): M = 4 doubles it.  Its standard
    # error comes from the spread of the ratio over K independent sweeps,
    # since the gradient samples are far from normal (the toy's drep phi
    # gradient is (sum h)(theta - phi)).  As in A6, every SNR must stand at
    # least twice above its floor, or the ratio would measure the floor
    model = make_model()
    reps, n, k = 1000, 8, 8
    sweeps = {m: [snr_sweep(model, alpha, m, [n], reps, 10, make_stream(17, 2 * i + (m > 1)))
                  for i in range(k)] for m in (1, 4)}
    for key in sweeps[1][0].blocks:
        snr1, snr4 = (np.array([rep.blocks[key].mean_snr[0] for rep in sweeps[m]])
                      for m in (1, 4))
        assert snr1.min() >= 2.0 * snr_floor(reps), key
        ratio = snr4 / snr1
        se = ratio.std(ddof=1) / math.sqrt(k)
        assert abs(ratio.mean() - 2.0) <= 4.0 * se, (key, ratio.mean(), se)


def test_snr_input_validation():
    with pytest.raises(ValueError):
        snr_sweep(toy(), 0.0, 1, [4, 2], 200, 1, make_stream(0, 0))
    with pytest.raises(ValueError):
        snr_sweep(toy(), 0.0, 1, [2, 4], 50, 1, make_stream(0, 0))


# --------------------------------------------------------------------------
# mean/SE reducer
# --------------------------------------------------------------------------

def test_mean_se_large_offset():
    # unit spread on a 1e8 offset: sum(x^2)/n - mean^2 cancels to garbage
    x = 1e8 + standard_normal(make_stream(40, 0), (10_000, 3))
    acc = _MeanSE(3)
    acc.add(x[:4000])
    acc.add(x[4000:])
    mean, se = acc.finalize()
    centred = x - 1e8  # exact: the offset is representable
    want_se = centred.std(axis=0, ddof=1) / 100.0
    np.testing.assert_allclose(mean - 1e8, centred.mean(axis=0), rtol=0, atol=1e-6)
    np.testing.assert_allclose(se, want_se, rtol=1e-8)
    naive_var = np.maximum((x * x).mean(axis=0) - x.mean(axis=0) ** 2, 0.0) * 10_000 / 9_999
    assert np.all(np.abs(np.sqrt(naive_var / 10_000) / want_se - 1.0) > 0.01)


def test_mean_se_independent_of_chunking():
    x = 3.0 + 0.5 * standard_normal(make_stream(41, 0), (1000, 2, 2))
    results = []
    for cuts in ((), (1,), (10, 11, 500), tuple(range(1, 1000))):
        acc = _MeanSE((2, 2))
        for lo, hi in zip((0, *cuts), (*cuts, 1000)):
            acc.add(x[lo:hi])
        results.append(acc.finalize())
    mean0, se0 = results[0]
    np.testing.assert_allclose(mean0, x.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(se0, x.std(axis=0, ddof=1) / math.sqrt(1000), rtol=1e-12)
    for mean, se in results[1:]:
        np.testing.assert_allclose(mean, mean0, rtol=1e-14)
        np.testing.assert_allclose(se, se0, rtol=1e-12)


# --------------------------------------------------------------------------
# MSE across N, from the mean/SE estimators
# --------------------------------------------------------------------------

def test_mse_matched_params_bound_exact():
    # constant weights: the bound estimate equals the log marginal exactly,
    # while the theta-gradient estimator keeps its sampling variance d/N
    model = toy(d=4, theta=0.3, phi=0.3)
    for n in (2, 8):
        est = bound_mc(model, 0.0, n, 4000, make_stream(15, 0).child(n))
        assert (est.mean, est.std_error) == (model.log_marginal(), 0.0)
        grad = grad_mean_se(model, 0.0, n, 4000, make_stream(15, 0).child(n))
        # MSE about the exact gradient over the R samples, per coordinate:
        # R * SE^2 + bias^2, with SE^2 from the unbiased variance
        # the toy's log marginal is identically 0, so its exact gradient is 0
        err = grad.theta_mean
        mse = float(np.mean(grad.replicates * grad.theta_se**2 + err**2))
        expected_var = 1.0 / n  # per coordinate: Var(mean eps) = 1/N
        assert mse == pytest.approx(expected_var, rel=0.15)


def test_mse_bound_decreases_with_n():
    model = lingauss(3, seed=21)
    mses = []
    for n in (2, 16, 128):
        # the gap is bound minus log marginal, so its MSE is the bound's
        gap = gap_mc(model, 0.0, n, 4000, make_stream(16, n << 20))
        mses.append(gap.replicates * gap.std_error**2 + gap.mean**2)
    assert mses[0] > mses[1] > mses[2]


def test_mse_elbo_path_ignores_n():
    # alpha=1: one N=100 estimate and the average of 100 N=1 estimates are the
    # same statistic, so budget-matched MSEs agree up to replicate noise
    from vriwae.bounds import vr_iwae_from_log_weights
    model = lingauss(3, seed=22)
    ell = model.log_marginal()
    rows = 400

    eps = standard_normal(make_stream(17, 0), (rows, 100, 3))
    lw = model.log_unnormalized_weight(model.reparam(eps))
    err_batched = (vr_iwae_from_log_weights(lw, 1.0, axis=-1) - ell) ** 2

    eps = standard_normal(make_stream(18, 0), (rows, 100, 3))
    lw = model.log_unnormalized_weight(model.reparam(eps))
    singles = vr_iwae_from_log_weights(lw[..., np.newaxis], 1.0, axis=-1)  # 100 N=1 estimates
    err_avged = (singles.mean(axis=1) - ell) ** 2

    se = math.sqrt(err_batched.var(ddof=1) / rows + err_avged.var(ddof=1) / rows)
    assert abs(err_batched.mean() - err_avged.mean()) <= 3.0 * se
