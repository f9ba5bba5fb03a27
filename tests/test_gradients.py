import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtri

import vriwae.rng as vrng
from vriwae.bounds import gap_mc
from vriwae.experiments import make_linear_gaussian, make_toy
from vriwae.gradients import (_contract, fd_grad_from_eps, fd_grad_oracle, grad_mean_se,
                              grad_samples_from_eps, snr_floor, snr_sweep)
from vriwae.models import GaussianToy, LinearGaussian, _eps_sums
from vriwae.rng import make_stream, standard_normal, uniform
from vriwae.train import TrainConfig
from vriwae.weights import _h, _mean_se, _softmax_last, _weight_rows


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
    # equal log-weights give s = 1/n, and the h row of the estimators' weight
    # rows is alpha/n + (1 - alpha)/n^2
    for n in (2, 5, 8):
        for alpha in (0.0, 0.4, 1.0):
            expected = alpha / n + (1.0 - alpha) / n**2
            assert np.allclose(_weight_rows(np.zeros(n), alpha)[1], expected, atol=1e-14)


def test_h_hand_value():
    h = _h(np.array([0.75, 0.25]), 0.5)
    assert np.allclose(h, [0.65625, 0.15625], atol=1e-14)


def test_h_degenerate():
    # one finite log-weight: s = e_1, and h = s at alpha = 0
    s = np.zeros(4)
    s[0] = 1.0
    lw = np.array([0.0, -np.inf, -np.inf, -np.inf])
    assert np.allclose(_weight_rows(lw, 0.0)[1], s, atol=1e-14)


def test_h_sum_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        s = rng.dirichlet(np.ones(n))
        for alpha in (0.0, 0.3, 0.8, 1.0):
            # the h row of the weight rows of log-weights log s, which s
            # normalizes at alpha = 0
            h = _weight_rows(np.log(s), alpha)[1]
            total = h.sum()
            assert alpha + (1.0 - alpha) / n - 1e-12 <= total <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# single-draw estimators
# --------------------------------------------------------------------------

def test_single_sample_is_score_at_n1():
    # with one sample the softmax weight is 1 for every alpha
    model = toy()
    for alpha in (0.0, 0.5, 1.0):
        eps = standard_normal(make_stream(0, 0), (1, 1, model.d))
        _, g_phi, _ = grad_samples_from_eps(model, eps, alpha)
        z = model.reparam(eps[0])
        _, d_total, _ = model.score_grads(eps[0], z)
        assert np.allclose(g_phi[0], d_total[0], atol=1e-12)


def test_pinned_noise_hand_value():
    # toy d=1, theta=0, phi=1, eps=0, N=1: grad_phi = -(phi + eps - theta) = -1
    # for rep and drep, and grad_theta = z - theta = 1
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    eps = np.zeros((1, 1, 1))
    g_theta, g_phi, g_phi2 = grad_samples_from_eps(model, eps, 0.3)
    assert g_phi[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert g_phi2[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert g_theta[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_theta_block_identical_rep_drep():
    # grad_mean_se reduces one pass over its draws: rep and drep share the
    # theta block, and each key holds the estimator of its own phi block
    model = lingauss(4)
    est = grad_mean_se(model, 0.4, 8, 50, make_stream(5, 0))
    eps = standard_normal(make_stream(5, 0), (50, 8, model.d))
    _, g_rep, g_drep = grad_samples_from_eps(model, eps, 0.4)
    assert np.array_equal(est["rep"].theta_mean, est["drep"].theta_mean)
    assert np.array_equal(est["rep"].theta_se, est["drep"].theta_se)
    for kind, g in (("rep", g_rep), ("drep", g_drep)):
        mean, se = _mean_se(g)
        assert np.array_equal(est[kind].phi_mean, mean) and np.array_equal(est[kind].phi_se, se)
    assert not np.allclose(g_rep, g_drep)


def test_alpha_one_path_uniform_weights():
    # at alpha=1 both estimators average the scores uniformly
    model = toy(d=2)
    eps = standard_normal(make_stream(7, 0), (1, 6, 2))
    z = model.reparam(eps)
    d_theta, d_total, d_stopped = model.score_grads(eps, z)
    g_theta, g_phi, g_phi_d = grad_samples_from_eps(model, eps, 1.0)
    assert np.allclose(g_phi[0], d_total[0].mean(axis=0), atol=1e-12)
    assert np.allclose(g_phi_d[0], d_stopped[0].mean(axis=0), atol=1e-12)


def test_drep_alpha_zero_squared_weights():
    model = toy(d=2)
    eps = standard_normal(make_stream(8, 0), (1, 5, 2))
    z = model.reparam(eps)
    lw = model.log_unnormalized_weight(z)
    s = np.exp(lw - lw.max(axis=-1, keepdims=True))
    s = s / s.sum(axis=-1, keepdims=True)
    _, _, d_stopped = model.score_grads(eps, z)
    _, _, g_phi = grad_samples_from_eps(model, eps, 0.0)
    expected = np.einsum("rn,rnk->rk", s**2, d_stopped)
    assert np.allclose(g_phi, expected, atol=1e-12)


def test_alpha_domain():
    eps = standard_normal(make_stream(0, 0), (1, 2, 3))
    with pytest.raises(ValueError):
        grad_samples_from_eps(toy(), eps, -0.2)
    with pytest.raises(ValueError):
        grad_samples_from_eps(toy(), eps, 1.2)


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
    # the eps path reads the log-weights and the sums of z off the quadratic
    # in eps; the z-path sums the same terms in another order, so they agree
    # to rounding
    model = make_model()
    eps = standard_normal(make_stream(30, 0), (*shape, model.d))
    lw, w_sum, wz = _eps_sums(model, eps, alpha)
    g_theta, g_rep, g_drep = grad_samples_from_eps(model, eps, alpha)
    want_lw = model.log_unnormalized_weight(model.reparam(eps))
    np.testing.assert_allclose(lw, want_lw, rtol=1e-12, atol=1e-12 * np.abs(want_lw).max())
    for got, want in zip((g_theta, g_rep, g_drep), _materialized_grads(model, eps, alpha)):
        assert got.shape == want.shape == (*shape[:-1], want.shape[-1])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    # the kernel is the contraction of the sums its log-weights come with
    for got, want in zip((g_theta, g_rep, g_drep), _contract(model.score_affine(), w_sum, wz)):
        assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# toy gradients from their exact conditional law against the eps path
# --------------------------------------------------------------------------

# per weight row (s: 0, h: 1), the gradients contracted against it
_ROW_KINDS = {0: ("theta", "rep"), 1: ("drep",)}


@pytest.mark.parametrize("theta, phi", [(0.0, 1.0), (0.3, -0.5)], ids=["phi>theta", "phi<theta"])
def test_toy_conditional_pass_matches_eps_path_at_d1(theta, phi):
    # at d = 1 there is nothing orthogonal to u, so eps_j = u * S_j is the
    # whole draw and both paths see the same samples: the last of the n + 1
    # normals is projected out.  Each weight row comes from its own draw
    model = GaussianToy(d=1, theta=np.full(1, theta), phi=np.full(1, phi))
    u = np.sign(theta - phi)
    for n in (1, 8, 100):
        words = uniform(make_stream(3, 0), (50, n + 1))
        normals = ndtri(words)
        eps = (u * -normals[:, :n])[..., None]
        z = model.reparam(eps)
        for alpha in (0.0, 0.5, 1.0):
            w = _weight_rows(model.log_unnormalized_weight(z), alpha)
            want = dict(zip(("theta", "rep", "drep"), grad_samples_from_eps(model, eps, alpha)))
            for row, kinds in _ROW_KINDS.items():
                lw, w_sum, wz = model.train_sums(normals, alpha, (row,))
                s = model.law_scalars()
                assert np.array_equal(lw, model.law_log_weights(
                    model.law_variates(words[:, :n, None], s), s))
                w_row = w[:, row:row + 1]
                np.testing.assert_allclose(w_sum, w_row.sum(axis=-1, keepdims=True), rtol=1e-12)
                np.testing.assert_allclose(wz, w_row @ z, rtol=1e-12,
                                           atol=1e-12 * np.abs(z).max())
                got = (lw, *_contract(model.score_affine(), w_sum, wz, kinds, (row,)))
                for g, h in zip(got, (_eps_sums(model, eps, alpha)[0], *map(want.get, kinds))):
                    np.testing.assert_allclose(g, h, rtol=1e-12, atol=1e-12 * np.abs(h).max())


@pytest.mark.parametrize("d", [2, 10, 1000])
def test_toy_train_log_weights_are_its_law(d):
    # the toy states B once, as sqrt(||v||^2) of `law_scalars`: an epoch's
    # log-weights are `law_log_weights` of its first N normals, bit for bit
    rng = np.random.default_rng(d)
    n = 8
    for _ in range(50):
        model = GaussianToy(d=d, theta=rng.normal(size=d), phi=rng.normal(size=d))
        normals = rng.normal(size=(3, model.train_normals(n)))
        lw, _, _ = model.train_sums(normals, 0.5)
        assert np.array_equal(lw, model.law_log_weights((normals[..., :n],),
                                                        model.law_scalars()))


def _toy_stats(model, w_sum, wz, row):
    """Per-sample statistics of the weight row `row` from its sums: its
    gradients (theta and rep phi for s, drep phi for h), then sum w z.

    The toy's stopped phi score is constant in z, so sum h z enters no toy
    gradient; it is compared on its own.
    """
    grads = _contract(model.score_affine(), w_sum, wz, _ROW_KINDS[row], (row,))
    return np.concatenate([*grads, wz[..., 0, :]], axis=-1)


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
    # theta - phi points along a random direction u with norm B.  Each weight
    # row's statistics come from its own one-row draw, as in a training run,
    # so they are compared row by row; no draw gives the s and h sums jointly
    rng = np.random.default_rng(d + n)
    phi = rng.normal(size=d)
    direction = rng.normal(size=d)
    model = GaussianToy(d=d, theta=phi + b * direction / np.linalg.norm(direction), phi=phi)
    r = min(20_000, 50_000_000 // (n * d), 4_000_000 // (4 * d))
    blocks = {row: len(kinds) + 1 for row, kinds in _ROW_KINDS.items()}  # d-blocks per row
    eps_stats = {(a, row): np.empty((r, m * d)) for a in _ALPHAS for row, m in blocks.items()}
    stream = make_stream(60, d * 1000 + n)
    for start, stop in vrng._replicate_chunks(r, n * d):
        z = model.reparam(standard_normal(stream, (stop - start, n, d)))
        lw = model.log_unnormalized_weight(z)
        for a in _ALPHAS:
            w = _weight_rows(lw, a)
            for row in blocks:
                w_row = w[:, row:row + 1]
                eps_stats[a, row][start:stop] = _toy_stats(
                    model, w_row.sum(axis=-1, keepdims=True), w_row @ z, row)
    normals = standard_normal(make_stream(61, d * 1000 + n), (r, n + d))

    k = min(d, 5)          # covariance over the first k coordinates of each block of a row
    cov_cols = {row: np.concatenate([np.arange(k) + j * d for j in range(m)])
                for row, m in blocks.items()}
    tests = len(_ALPHAS) * sum(blocks.values()) * d
    covs = len(_ALPHAS) * sum(len(cols) ** 2 for cols in cov_cols.values())
    z_crit = float(ndtri(1.0 - 1e-4 / (2.0 * (tests + covs))))
    for a in _ALPHAS:
        for row, cols in cov_cols.items():
            x = _toy_stats(model, *model.train_sums(normals, a, (row,))[1:], row)
            y = eps_stats[a, row]
            const = (x.min(axis=0) == x.max(axis=0)) & (y.min(axis=0) == y.max(axis=0))
            np.testing.assert_allclose(x[0, const], y[0, const], rtol=1e-12, atol=1e-12)
            p = _ks_pvalues(x[:, ~const], y[:, ~const])
            assert p.min() > 1e-4 / tests, (a, row, int(np.argmin(p)), p.min())
            se = np.sqrt(x.var(axis=0, ddof=1) / r + y.var(axis=0, ddof=1) / r)
            assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) <= z_crit * se + 1e-12), (a, row)
            cx, sx = _cov_and_se(x[:, cols])
            cy, sy = _cov_and_se(y[:, cols])
            assert np.all(np.abs(cx - cy) <= z_crit * np.sqrt(sx**2 + sy**2) + 1e-12), (a, row)


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
    exact_t, exact_p, _ = grad_samples_from_eps(model, eps, 0.3)
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
    rep = grad_mean_se(model, 0.3, 4, 20_000, make_stream(11, 0))["rep"]
    fd = fd_grad_oracle(model, 0.3, 4, 1e-3, 20_000, make_stream(11, 0))
    for blk in ("theta", "phi"):
        ma, sa = getattr(rep, f"{blk}_mean"), getattr(rep, f"{blk}_se")
        mb, sb = getattr(fd, f"{blk}_mean"), getattr(fd, f"{blk}_se")
        assert np.all(np.abs(ma - mb) <= 3.0 * np.sqrt(sa**2 + sb**2))


def test_matched_params_gradient_near_zero():
    # theta = phi: the rep phi-gradient has mean zero by symmetry
    model = toy(d=3, theta=0.5, phi=0.5)
    est = grad_mean_se(model, 0.0, 4, 20_000, make_stream(12, 0))["rep"]
    assert np.all(np.abs(est.phi_mean) <= 3.0 * est.phi_se)


# --------------------------------------------------------------------------
# SNR harness
# --------------------------------------------------------------------------

def test_snr_planted_slope():
    # synthetic estimator: mean fixed, std ~ 1/sqrt(N) -> slope 1/2

    class Synthetic:
        d = 1
        theta_vec = phi_vec = np.zeros(1)

        def score_affine(self):
            # the same scores 1 + z, z = eps: mean 1, unit variance per sample
            one = (lambda: np.ones(1), np.ones(1))
            return one, one, one

        def log_weight_quadratic(self):
            # z = eps, log w = 0: uniform softmax
            return np.zeros(1), 1.0, 0.0, np.zeros(1), 0.0, 0.0

    n_grid = [4, 16, 64, 256]
    blocks = snr_sweep(Synthetic(), 0.0, 1, n_grid, 4000, 1, make_stream(13, 0))
    for key in (("rep", "theta"), ("rep", "phi")):
        assert blocks[key].slope == pytest.approx(0.5, abs=0.02)
        assert not blocks[key].at_floor.any()  # SNR sqrt(N), far above the floor


def test_snr_zero_variance_sentinel():

    class Constant:
        d = 1
        theta_vec = phi_vec = np.zeros(1)

        def score_affine(self):
            one = (lambda: np.ones(1), np.zeros(1))  # the same scores: constant 1
            return one, one, one

        def log_weight_quadratic(self):
            return np.zeros(1), 1.0, 0.0, np.zeros(1), 0.0, 0.0  # z = eps, log w = 0

    blk = snr_sweep(Constant(), 0.0, 1, [2, 4], 200, 1, make_stream(14, 0))[("rep", "theta")]
    assert np.all(np.isinf(blk.per_coordinate_snr))
    assert math.isnan(blk.slope)
    assert not blk.at_floor.any()  # infinite SNR is not at the floor


def test_snr_floor_flag_on_zero_mean_theta_block():
    # a toy at theta = phi has a zero-mean theta gradient, so its SNR reads
    # the floor sqrt(2/(pi R)) itself
    blk = snr_sweep(toy(d=10, theta=0.5, phi=0.5), 0.0, 1, [2, 8], 400, 10,
                    make_stream(15, 0))[("rep", "theta")]
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
    assert a.keys() == b.keys()
    for key in a:
        for attr in ("per_coordinate_snr", "mean_snr", "at_floor"):
            assert np.array_equal(getattr(a[key], attr), getattr(b[key], attr))
        assert a[key].slope == b[key].slope


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_snr_sweep_reduces_like_grad_mean_se(alpha):
    # at M = 1 and one N, the sweep's one cell is that of grad_mean_se on
    # stream.child(2), and every block is sampled whole: each SNR is
    # |mean|/(SE sqrt(R)) of those moments, permuted by the sweep's
    # coordinate draws, to the bit
    model, reps, n, stream = lingauss(3, seed=3), 150, 4, make_stream(18, 5)
    blocks = snr_sweep(model, alpha, 1, [n], reps, 100, stream)
    est = grad_mean_se(model, alpha, n, reps, stream.child(2))
    idx = {"theta": vrng.permutation_indices(stream.child(0), model.theta_vec.size,
                                             model.theta_vec.size),
           "phi": vrng.permutation_indices(stream.child(1), model.phi_vec.size,
                                           model.phi_vec.size)}
    assert blocks.keys() == {(kind, block) for kind in est for block in idx}
    for (kind, block), blk in blocks.items():
        mean = getattr(est[kind], f"{block}_mean")[idx[block]]
        se = getattr(est[kind], f"{block}_se")[idx[block]]
        assert np.all(se > 0)
        np.testing.assert_array_equal(blk.per_coordinate_snr,
                                      [np.abs(mean) / (se * math.sqrt(reps))])


def _sweep_moments(monkeypatch, *args):
    """The (mean, SE) per gradient (theta, rep phi, drep phi) that
    snr_sweep(*args) reads from its one `_grad_moments` call."""
    from vriwae import gradients
    real, seen = gradients._grad_moments, []
    monkeypatch.setattr(gradients, "_grad_moments", lambda *a: seen.append(real(*a)) or seen[-1])
    snr_sweep(*args)
    (moments,) = seen
    return moments


_NESTED_MODELS = pytest.mark.parametrize(
    "make_model", [lambda: make_toy(20, 0.8), lambda: make_linear_gaussian(20, 0.3, 4)[0]],
    ids=["toy", "lingauss"])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@_NESTED_MODELS
def test_grad_samples_read_each_n_as_a_prefix(make_model, alpha):
    # given a grid, the gradients of each N are those of a call on the first
    # N samples of each row alone, bit for bit, though BLAS rounds a
    # matrix's last rows apart from its blocks of rows (N = 3 and 10)
    model, n_grid = make_model(), (1, 3, 10)
    eps = standard_normal(make_stream(21, 0), (6, 2, 10, model.d))
    got = grad_samples_from_eps(model, eps, alpha, n_grid)
    for g, n in enumerate(n_grid):
        for a, b in zip(got, grad_samples_from_eps(model, eps[..., :n, :].copy(), alpha)):
            np.testing.assert_array_equal(a[..., g, :], b, err_msg=str(n))


@pytest.mark.parametrize("target", [1, 200, 2**16])
@_NESTED_MODELS
def test_snr_sweep_reads_each_n_as_a_prefix_of_one_batch(monkeypatch, make_model, target):
    # replicate r of a sweep draws one (M, N_max, d) batch, block r of the
    # normals of stream.child(2), and each N reduces the gradients of its
    # first N samples: the sweep's moments are those of direct calls on
    # those prefixes, averaged over M and sampled at the sweep's
    # coordinates, bit for bit, at any chunk size
    model, n_grid, reps, m, stream = make_model(), (1, 3, 10), 120, 2, make_stream(22, 7)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", target)
    moments = _sweep_moments(monkeypatch, model, 0.5, m, n_grid, reps, 3, stream)
    idx = [vrng.permutation_indices(stream.child(i), size, 3)
           for i, size in enumerate((model.theta_vec.size, model.phi_vec.size))]
    eps = standard_normal(stream.child(2), (reps, m, n_grid[-1], model.d))
    want = [[], [], []]
    for n in n_grid:
        grads = grad_samples_from_eps(model, eps[..., :n, :].copy(), 0.5)
        for j, (g, block) in enumerate(zip(grads, (0, 1, 1))):
            want[j].append(np.take(g.mean(axis=1), idx[block], axis=-1))
    assert len(moments) == 3
    for (mean, se), samples in zip(moments, want):
        want_mean, want_se = _mean_se(np.stack(samples, axis=1))
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(se, want_se)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@_NESTED_MODELS
def test_snr_sweep_means_have_the_law_of_per_n_cells(monkeypatch, make_model, alpha):
    # the N of a sweep share their draws; each N keeps the law of a cell
    # drawn alone: per coordinate, the sweep's gradient means lie within a
    # few SEs of grad_mean_se on a fresh stream per N (the rule the sweep's
    # N cells read before they shared one batch), where either varies
    model, n_grid, reps, stream = make_model(), (1, 3, 10), 4000, make_stream(23, 0)
    theta, rep, drep = _sweep_moments(monkeypatch, model, alpha, 1, n_grid, reps, 100, stream)
    idx = {"theta": vrng.permutation_indices(stream.child(0), model.theta_vec.size,
                                             model.theta_vec.size),
           "phi": vrng.permutation_indices(stream.child(1), model.phi_vec.size,
                                           model.phi_vec.size)}
    worst, compared = 0.0, 0
    for g, n in enumerate(n_grid):
        est = grad_mean_se(model, alpha, n, reps, make_stream(24, g))
        for (mean, se), kind, block in ((theta, "rep", "theta"), (rep, "rep", "phi"),
                                        (drep, "drep", "phi")):
            alone = [getattr(est[kind], f"{block}_{x}")[idx[block]] for x in ("mean", "se")]
            both = np.hypot(se[g], alone[1])
            varies = both > 0
            np.testing.assert_array_equal(mean[g][~varies], alone[0][~varies])
            z = np.abs(mean[g] - alone[0])[varies] / both[varies]
            worst, compared = max(worst, *z, 0.0), compared + z.size
    assert compared > 0
    # 180 to 300 coordinates per case: |z| >= 4.5 has probability 7e-6 each
    assert worst < 4.5, worst


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
    for key in sweeps[1][0]:
        snr1, snr4 = (np.array([blocks[key].mean_snr[0] for blocks in sweeps[m]])
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
    mean, se = _mean_se(x)
    centred = x - 1e8  # exact: the offset is representable
    want_se = centred.std(axis=0, ddof=1) / 100.0
    np.testing.assert_allclose(mean - 1e8, centred.mean(axis=0), rtol=0, atol=1e-6)
    np.testing.assert_allclose(se, want_se, rtol=1e-8)
    naive_var = np.maximum((x * x).mean(axis=0) - x.mean(axis=0) ** 2, 0.0) * 10_000 / 9_999
    assert np.all(np.abs(np.sqrt(naive_var / 10_000) / want_se - 1.0) > 0.01)


def test_mean_se_matches_numpy():
    # every trailing axis is reduced on its own, along the replicate axis
    x = 3.0 + 0.5 * standard_normal(make_stream(41, 0), (1000, 2, 2))
    mean, se = _mean_se(x)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / math.sqrt(1000), rtol=1e-12)


@pytest.mark.parametrize("replicates", [100, 4000])
def test_mean_se_of_a_constant_is_zero(replicates):
    # the mean of equal values, added in sequence, rounds off them by many
    # ulps; a constant column still reads SE 0, beside a column that varies
    # and keeps its SE, and so does a 1-D sample
    values = np.array([0.1, 1.0 / 3.0, 1e12 + 0.7, -2.0 / 7.0])
    assert np.any(np.full((replicates, 4), values).mean(axis=0) != values)
    x = np.concatenate([np.full((replicates, 4), values),
                        standard_normal(make_stream(42, 0), (replicates, 1))], axis=1)
    mean, se = _mean_se(x)
    np.testing.assert_array_equal(se[:4], 0.0)
    np.testing.assert_allclose(se[4], x[:, 4].std(ddof=1) / math.sqrt(replicates), rtol=1e-12)
    assert _mean_se(x[:, 2])[1] == 0.0


@pytest.mark.parametrize("replicates", [0, 1])
def test_standard_errors_need_two_replicates(replicates):
    # fewer than 2 replicates have no standard error: each Monte Carlo entry
    # refuses them before it draws, the reducer refuses a sample of one row,
    # and a TrainConfig refuses them for its gap columns
    model, stream = toy(), make_stream(0, 0)
    calls = (lambda: gap_mc(model, 0.5, 4, replicates, stream),
             lambda: grad_mean_se(model, 0.5, 4, replicates, stream),
             lambda: fd_grad_oracle(model, 0.5, 4, 1e-4, replicates, stream),
             lambda: _mean_se(np.zeros((replicates, 3))))
    with mock.patch.object(vrng, "_chunk_map", side_effect=AssertionError("drew")):
        for call in calls:
            with pytest.raises(ValueError, match=f"at least 2 replicates, got {replicates}$"):
                call()
    with pytest.raises(ValueError, match="^gap_replicates must be >= 2 "):
        TrainConfig(gap_replicates=replicates)


# --------------------------------------------------------------------------
# MSE across N, from the mean/SE estimators
# --------------------------------------------------------------------------

def test_mse_matched_params_bound_exact():
    # constant weights: the bound estimate equals the log marginal exactly,
    # while the theta-gradient estimator keeps its sampling variance d/N
    model = toy(d=4, theta=0.3, phi=0.3)
    for n in (2, 8):
        est = gap_mc(model, 0.0, n, 4000, make_stream(15, 0).child(n))
        assert (est.mean + model.log_marginal(), est.std_error) == (model.log_marginal(), 0.0)
        grad = grad_mean_se(model, 0.0, n, 4000, make_stream(15, 0).child(n))["rep"]
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
