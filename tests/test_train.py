import math

import numpy as np
import pytest

import vriwae.rng as vrng
from vriwae.bounds import gap_mc
from vriwae.gradients import _contract, grad_samples_from_eps
from vriwae.models import GaussianToy, LinearGaussian
from vriwae.rng import make_stream, standard_normal
from vriwae.train import (AdamState, TrainConfig, TrainingDiverged, adam_step, run_training,
                          sgd_step)


def toy(d, phi=1.0):
    return GaussianToy(d=d, theta=np.zeros(d), phi=np.full(d, phi))


def lingauss(d, seed=0):
    rng = np.random.default_rng(seed)
    return LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                          b=rng.normal(size=d), x=rng.normal(size=d))


def test_sgd_step_basics():
    p = np.zeros(2)
    assert np.array_equal(sgd_step(p, np.zeros(2), 0.5), p)
    assert np.array_equal(sgd_step(p, np.array([1.0, 2.0]), 1.0), [1.0, 2.0])
    # two half steps on a constant gradient equal one full step
    g = np.array([0.3, -0.2])
    twice = sgd_step(sgd_step(p, g, 0.1), g, 0.1)
    assert np.allclose(twice, sgd_step(p, g, 0.2), atol=1e-15)


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(3), 0.1)


def test_adam_first_step_magnitude():
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) at step 1
    state = AdamState.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    state, p = adam_step(state, np.zeros(3), g, lr=1e-3)
    assert np.allclose(p, 1e-3 * np.sign(g), atol=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_fixed_point():
    state = AdamState.zeros(2)
    p = np.array([1.0, -1.0])
    for _ in range(5):
        state, p = adam_step(state, p, np.zeros(2), lr=0.1)
    assert np.array_equal(p, [1.0, -1.0])


def test_adam_coordinatewise_permutation():
    g = np.array([0.7, -0.1, 2.0])
    perm = np.array([2, 0, 1])
    s1, p1 = adam_step(AdamState.zeros(3), np.zeros(3), g, lr=0.01)
    s2, p2 = adam_step(AdamState.zeros(3), np.zeros(3), g[perm], lr=0.01)
    assert np.allclose(p1[perm], p2, atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(estimator="nope")
    with pytest.raises(ValueError):
        TrainConfig(optimizer="nope")
    for kw in (dict(alpha=1.5), dict(epochs=-1), dict(n_importance=0), dict(log_every=0),
               dict(gap_replicates=0), dict(learning_rate=float("nan")),
               dict(learning_rate=float("inf"))):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


def test_zero_epochs_initial_row_only():
    config = TrainConfig(epochs=0, gap_replicates=4)
    traj = run_training(toy(3), config, make_stream(0, 0))
    assert len(traj.rows) == 1
    assert traj.rows[0].epoch == 0
    assert traj.rows[0].progress == pytest.approx(1.0)


def test_determinism():
    config = TrainConfig(alpha=0.2, n_importance=8, epochs=40, log_every=10,
                         learning_rate=1e-2, gap_replicates=4)
    t1 = run_training(toy(4), config, make_stream(5, 0))
    t2 = run_training(toy(4), config, make_stream(5, 0))
    assert [r.__dict__ for r in t1.rows] == [r.__dict__ for r in t2.rows]


def test_rows_strictly_increasing_epochs():
    config = TrainConfig(epochs=25, log_every=10, gap_replicates=2)
    traj = run_training(toy(2), config, make_stream(6, 0))
    epochs = [r.epoch for r in traj.rows]
    assert epochs == sorted(set(epochs))
    assert epochs[-1] == 25


def test_elbo_mean_update_direction():
    # alpha=1 path: the expected update is theta - phi; check cosine alignment
    model = toy(10, phi=1.0)
    eps = standard_normal(make_stream(7, 0), (100_000, 1, 10))
    _, g_phi, _ = grad_samples_from_eps(model, eps, 1.0)
    mean_update = g_phi.mean(axis=0)
    direction = model.theta - model.phi
    cos = float(mean_update @ direction
                / (np.linalg.norm(mean_update) * np.linalg.norm(direction)))
    assert cos > 0.99


def test_elbo_sgd_reaches_fixed_point():
    # alpha=1, N=1 is ELBO SGD with fixed point phi = theta
    config = TrainConfig(alpha=1.0, n_importance=1, epochs=2000, log_every=500,
                         learning_rate=1e-2, gap_replicates=2)
    traj = run_training(toy(10), config, make_stream(8, 0))
    assert traj.rows[0].progress == pytest.approx(1.0)
    assert traj.final.progress < 0.01


def test_divergence_guard():
    model = toy(2, phi=1.0)
    config = TrainConfig(alpha=1.0, n_importance=1, epochs=50, log_every=10,
                         learning_rate=1e12, gap_replicates=2)
    with pytest.raises(TrainingDiverged):
        run_training(model, config, make_stream(9, 0))


def _rows(traj):
    return [r.__dict__ for r in traj.rows]


def test_linear_gaussian_determinism():
    config = TrainConfig(alpha=0.3, n_importance=6, epochs=30, log_every=10,
                         learning_rate=1e-3, gap_replicates=4)
    t1 = run_training(lingauss(3), config, make_stream(5, 0))
    t2 = run_training(lingauss(3), config, make_stream(5, 0))
    t3 = run_training(lingauss(3), config, make_stream(6, 0))
    assert t1.progress_label == "lambda"
    assert _rows(t1) == _rows(t2)
    assert _rows(t1) != _rows(t3)


@pytest.mark.parametrize("make_model", [lambda: toy(4, phi=0.8), lambda: lingauss(3, seed=2)],
                         ids=["toy", "lingauss"])
def test_rows_independent_of_chunk_target(monkeypatch, make_model):
    config = TrainConfig(alpha=0.2, n_importance=5, epochs=23, log_every=4,
                         learning_rate=1e-2, gap_replicates=3)
    runs = []
    for target in (1_000_000, 1, 40):
        monkeypatch.setattr(vrng, "_CHUNK_TARGET", target)
        runs.append(_rows(run_training(make_model(), config, make_stream(11, 7))))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("make_model, train_theta", [(lambda: toy(4, phi=0.8), False),
                                                     (lambda: lingauss(3, seed=2), True)],
                         ids=["toy", "lingauss"])
def test_epochs_draw_from_keyed_streams(make_model, train_theta):
    # epoch e reads row e - 1 of one draw from stream (seed, stream_id), and
    # logged row k its gap from stream.child(1 + k); the caller's stream is
    # not advanced.  The linear Gaussian trains theta, the toy does not
    n, alpha, lr, reps, epochs = 5, 0.2, 1e-2, 3, 6
    config = TrainConfig(alpha=alpha, n_importance=n, epochs=epochs, log_every=1,
                         learning_rate=lr, gap_replicates=reps)
    seed, base = 12, 1000
    stream = make_stream(seed, base)
    traj = run_training(make_model(), config, stream)
    assert _rows(run_training(make_model(), config, stream)) == _rows(traj)
    model = make_model()
    words = n + 2 * model.d if isinstance(model, GaussianToy) else n * model.d
    draws = standard_normal(make_stream(seed, base), (epochs, words))
    for epoch in range(epochs + 1):
        if epoch:
            normals = draws[epoch - 1]
            if isinstance(model, GaussianToy):
                _, w_sum, wz = model.train_sums(normals, alpha)
                g_theta, g_phi, _ = _contract(model, w_sum, wz)
            else:
                g_theta, g_phi, _ = grad_samples_from_eps(model, normals.reshape(n, model.d),
                                                          alpha)
            if train_theta:
                model = model.with_theta(sgd_step(model.theta_vec, g_theta, lr))
            model = model.with_phi(sgd_step(model.phi_vec, g_phi, lr))
        gap = gap_mc(model, alpha, n, reps, make_stream(seed, base + 1 + epoch))
        row = traj.rows[epoch]
        assert row.epoch == epoch
        progress = model.bd**2 / model.d if isinstance(model, GaussianToy) else model.lam
        assert row.progress == pytest.approx(progress, rel=1e-12)
        assert row.gap_mean == pytest.approx(gap.mean, rel=1e-12)
        assert row.gap_se == pytest.approx(gap.std_error, rel=1e-12)
