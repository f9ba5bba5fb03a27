import math

import numpy as np
import pytest
from scipy.special import ndtri, softmax
from scipy.stats import ks_2samp

import vriwae.bounds as bounds
import vriwae.rng as vrng
from vriwae.bounds import gap_mc
from vriwae.gradients import _contract, grad_samples_from_eps
from vriwae.models import GaussianToy, LinearGaussian, _Model
from vriwae.rng import make_stream, standard_normal, uniform
from vriwae.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, GRAD_NORM_LIMIT, TrainConfig,
                          Trajectory, TrajectoryRow, TrainingDiverged, _Adam, _Sgd,
                          _epoch_draws, run_training)


def toy(d, phi=1.0):
    return GaussianToy(d=d, theta=np.zeros(d), phi=np.full(d, phi))


def lingauss(d, seed=0):
    rng = np.random.default_rng(seed)
    return LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                          b=rng.normal(size=d), x=rng.normal(size=d))


def test_sgd_step_basics():
    p = np.zeros(2)
    _Sgd(p, 0.5)(np.zeros(2))
    assert np.array_equal(p, np.zeros(2))
    p = np.zeros(2)
    _Sgd(p, 1.0)(np.array([1.0, 2.0]))
    assert np.array_equal(p, [1.0, 2.0])
    # two half steps on a constant gradient equal one full step
    g = np.array([0.3, -0.2])
    twice, once = np.zeros(2), np.zeros(2)
    half = _Sgd(twice, 0.1)
    half(g)
    half(g)
    _Sgd(once, 0.2)(g)
    assert np.allclose(twice, once, atol=1e-15)


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        _Sgd(np.zeros(2), 0.1)(np.zeros(3))


def test_adam_first_step_magnitude():
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) at step 1
    g = np.array([0.5, -2.0, 1e-3])
    p = np.zeros(3)
    step = _Adam(p, 1e-3)
    step(g)
    assert np.allclose(p, 1e-3 * np.sign(g), atol=1e-6)
    assert step.t == 1


def test_adam_zero_gradient_fixed_point():
    p = np.array([1.0, -1.0])
    step = _Adam(p, 0.1)
    for _ in range(5):
        step(np.zeros(2))
    assert np.array_equal(p, [1.0, -1.0])


def test_adam_coordinatewise_permutation():
    g = np.array([0.7, -0.1, 2.0])
    perm = np.array([2, 0, 1])
    p1, p2 = np.zeros(3), np.zeros(3)
    _Adam(p1, 0.01)(g)
    _Adam(p2, 0.01)(g[perm])
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
    # each numeric field takes a number of its type, and no bool; the message
    # names the field.  An int too large for a float compares with inf
    # exactly, so only the float type rule keeps it from run_training's
    # first step, which would raise a bare OverflowError
    for kw in (dict(epochs=2.5), dict(epochs="3"), dict(alpha=None), dict(alpha="0.2"),
               dict(learning_rate=None), dict(n_importance=True), dict(n_importance=8.0),
               dict(log_every=np.int64(10) + 0.5), dict(gap_replicates=False),
               dict(learning_rate=10**400), dict(learning_rate=-10**400)):
        name, = kw
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**kw)
    assert TrainConfig(alpha=1, learning_rate=1, epochs=np.int64(3)).epochs == 3


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
    assert traj.rows[-1].progress < 0.01


def test_divergence_guard():
    model = toy(2, phi=1.0)
    config = TrainConfig(alpha=1.0, n_importance=1, epochs=50, log_every=10,
                         learning_rate=1e12, gap_replicates=2)
    with pytest.raises(TrainingDiverged):
        run_training(model, config, make_stream(9, 0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make_model, optimizer",
                         [(lambda: toy(2), "sgd"), (lambda: toy(2), "adam"),
                          (lambda: lingauss(2), "sgd")],
                         ids=["toy-sgd", "toy-adam", "lingauss-sgd"])
def test_nan_gradient_norm_diverges(make_model, optimizer):
    # epoch 1's step overflows the state (b^2, or the law of the parameters)
    # while its gradient norm passes; the run stops at that epoch, before
    # epoch 2's gradient norm is NaN or numpy warns on the state.  A run of
    # one epoch would log that state in epoch 1's row
    for epochs in (6, 1):
        config = TrainConfig(alpha=0.0, n_importance=4, epochs=epochs, log_every=1,
                             learning_rate=1e300, optimizer=optimizer, gap_replicates=2)
        with pytest.raises(TrainingDiverged,
                           match=r"^state is not finite after the step of epoch 1$"):
            run_training(make_model(), config, make_stream(0, 0))


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


def test_training_run_builds_one_stream_for_its_epochs(monkeypatch):
    # with one epoch per chunk, the epochs still read on from one stream at
    # the run's key; the logged gaps read its children
    config = TrainConfig(alpha=0.2, n_importance=4, epochs=6, log_every=6,
                         learning_rate=1e-2, gap_replicates=2)
    stream, model, keys = make_stream(13, 5), lingauss(3), []
    post_init = vrng.RngStream.__post_init__

    def counting(self):
        keys.append((self.seed, self.stream_id))
        post_init(self)

    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 1)
    monkeypatch.setattr(vrng.RngStream, "__post_init__", counting)
    traj = run_training(model, config, stream)
    assert [r.epoch for r in traj.rows] == [0, 6]
    assert keys.count((13, 5)) == 1
    assert set(keys) == {(13, 5), (13, 6)}

    # every row's gap reads the one key stream_id + 1.  Where its draws fit
    # one chunk, that key is built once as the run's handle, and once by
    # the chunk map as the one stream its draws come from, however many rows
    # the run logs
    drawn = []
    stream_at = vrng._stream_at

    def recording(seed, stream_id, word):
        drawn.append((seed, stream_id, word))
        return stream_at(seed, stream_id, word)

    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 2**16)
    monkeypatch.setattr(vrng, "_stream_at", recording)
    for log_every in (6, 1):
        keys.clear()
        drawn.clear()
        config = TrainConfig(alpha=0.2, n_importance=4, epochs=6, log_every=log_every,
                             learning_rate=1e-2, gap_replicates=2)
        traj = run_training(model, config, stream)
        assert len(traj.rows) == 1 + 6 // log_every
        assert drawn == [(13, 6, 0)]
        assert sorted(keys) == [(13, 5), (13, 6), (13, 6)]


@pytest.mark.parametrize("make_model", [lambda: toy(4, phi=0.8), lambda: lingauss(3, seed=2)],
                         ids=["toy", "lingauss"])
def test_epochs_draw_from_keyed_streams(make_model):
    # epoch e reads row e - 1 of one draw from stream (seed, stream_id), and
    # every logged row its gap from stream.child(1); the caller's stream is
    # not advanced.  The linear Gaussian trains theta on N x d normals.  The
    # toy trains no theta, and its rep SGD run is a chain in
    # b^2 = ||theta - phi||^2 on N + 3 uniforms per epoch: N normals Z and
    # C ~ chi^2_(d-1), with phi placed at theta - b u0 for each row
    n, alpha, lr, reps, epochs = 5, 0.2, 1e-2, 3, 6
    config = TrainConfig(alpha=alpha, n_importance=n, epochs=epochs, log_every=1,
                         learning_rate=lr, gap_replicates=reps)
    seed, base = 12, 1000
    stream = make_stream(seed, base)
    traj = run_training(make_model(), config, stream)
    assert _rows(run_training(make_model(), config, stream)) == _rows(traj)
    model = make_model()
    is_toy = isinstance(model, GaussianToy)
    if is_toy:
        u = uniform(make_stream(seed, base), (epochs, n + 3))
        z, chi = ndtri(u[:, :n]), vrng.chi_square(u[:, n:], model.d - 1)
        v = model.theta - model.phi
        b2 = float(v @ v)
        u0 = v / math.sqrt(b2)
    else:
        draws = standard_normal(make_stream(seed, base), (epochs, n * model.d))
    grad_norm = 0.0
    for epoch in range(epochs + 1):
        if epoch and is_toy:
            b = math.sqrt(b2)
            s = softmax((1.0 - alpha) * (-0.5 * b2 - b * z[epoch - 1]))
            par, s2 = b * s.sum() + s @ z[epoch - 1], s @ s
            grad_norm = math.sqrt(par**2 + s2 * chi[epoch - 1])
            b2 = (b - lr * par) ** 2 + lr**2 * s2 * chi[epoch - 1]
            model = model.with_phi(model.theta - math.sqrt(b2) * u0)
        elif epoch:
            g_theta, g_phi, _ = grad_samples_from_eps(
                model, draws[epoch - 1].reshape(n, model.d), alpha)
            grad_norm = math.sqrt(g_theta @ g_theta + g_phi @ g_phi)
            model = model.with_theta(_sgd_step(model.theta_vec, g_theta, lr))
            model = model.with_phi(_sgd_step(model.phi_vec, g_phi, lr))
        gap = gap_mc(model, alpha, n, reps, make_stream(seed, base + 1))
        row = traj.rows[epoch]
        assert row.epoch == epoch
        progress = b2 / model.d if is_toy else model.progress
        assert row.progress == pytest.approx(progress, rel=1e-12)
        assert row.grad_norm == pytest.approx(grad_norm, rel=1e-12)
        assert row.gap_mean == pytest.approx(gap.mean, rel=1e-12)
        assert row.gap_se == pytest.approx(gap.std_error, rel=1e-12)


_RUNS = {f"{name}-{optimizer}": (make_model, optimizer)
         for name, make_model in (("toy", lambda: toy(4, phi=0.8)),
                                  ("lingauss", lambda: lingauss(3, seed=2)))
         for optimizer in ("sgd", "adam")}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_rows_equal_gap_mc_at_their_state(monkeypatch, run):
    # each logged row's gap is gap_mc at the model state it logs, on the
    # run's key stream_id + 1, bit for bit, though the run evaluates all
    # rows in one pass after its loop.  The states are the run's private
    # model at each row, copied where the row reads its progress
    make_model, optimizer = _RUNS[run]
    cls, states = type(make_model()), []
    progress = cls.progress

    def recording(self):
        states.append(self.copy())
        return progress.fget(self)

    monkeypatch.setattr(cls, "progress", property(recording))
    config = TrainConfig(alpha=0.3, n_importance=6, optimizer=optimizer, learning_rate=5e-2,
                         epochs=14, log_every=3, gap_replicates=5)
    traj = run_training(make_model(), config, make_stream(19, 40))
    monkeypatch.setattr(cls, "progress", progress)
    assert [r.epoch for r in traj.rows] == [0, 3, 6, 9, 12, 14]
    assert len(states) == len(traj.rows)
    for row, state in zip(traj.rows, states):
        gap = gap_mc(state, config.alpha, config.n_importance, config.gap_replicates,
                     make_stream(19, 41))
        assert (row.gap_mean, row.gap_se) == (gap.mean, gap.std_error)
        assert row.progress == state.progress
    assert len({r.gap_mean for r in traj.rows}) == len(traj.rows)


@pytest.mark.parametrize("make_model", [lambda: toy(4, phi=0.8), lambda: lingauss(3, seed=2)],
                         ids=["toy", "lingauss"])
def test_rows_evaluated_in_bounded_groups(monkeypatch, make_model):
    # a run that logs more rows than one group of law states holds gives the
    # same rows at any chunk target, and no law block it reduces holds more
    # than the target's elements, or one replicate's N where the target is
    # below that.  At 10^6 one block holds every row
    n, reps = 5, 3
    config = TrainConfig(alpha=0.2, n_importance=n, epochs=23, log_every=1,
                         learning_rate=1e-2, gap_replicates=reps)
    reduce = bounds.vr_iwae_from_log_weights
    blocks, runs = [], []

    def recording(values, alpha, axis=-1):
        blocks.append(np.shape(values))
        return reduce(values, alpha, axis)

    monkeypatch.setattr(bounds, "vr_iwae_from_log_weights", recording)
    for target in (1, 40, 1_000_000):
        monkeypatch.setattr(vrng, "_CHUNK_TARGET", target)
        blocks.clear()
        runs.append(_rows(run_training(make_model(), config, make_stream(11, 7))))
        assert len(runs[-1]) == 24
        assert max(math.prod(shape) for shape in blocks) <= max(target, n)
        # replicates, states and N of each block cover every row's draws
        assert all(shape[-1] == n for shape in blocks)
        assert sum(shape[0] * shape[1] for shape in blocks) == 24 * reps
        if target == 40:
            assert max(shape[1] for shape in blocks) == 40 // (reps * n) < 24
        if target == 1_000_000:
            assert blocks == [(reps, 24, n)]
    assert runs[0] == runs[1] == runs[2]


# --------------------------------------------------------------------------
# the loop that rebuilds the model every epoch, as an oracle
# --------------------------------------------------------------------------

def _sgd_step(params, grad, lr):
    """Ascent step params + lr * grad, into a new array."""
    return params + lr * grad


def _adam_step(state, params, grad, lr):
    """Bias-corrected adaptive moment ascent step on state (m, v, t);
    returns (state, params), both new."""
    m, v, t = state
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return (m, v, t), params + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _rebuilding_training(model, config, stream):
    """`run_training`'s array kernel as a loop that builds a new model every
    epoch with `with_theta`/`with_phi`, contracts every gradient its draw
    gives and steps into new arrays.  The linear Gaussian's eps path gives
    both weight rows and all three gradients; the toy draws only its
    estimator's row.  It reads the same normals as the array kernel, so it is
    the oracle of every run but the toy's SGD chain."""
    traj = Trajectory(progress_label=model.PROGRESS_LABEL)
    adam_theta = (np.zeros(model.theta_vec.size), np.zeros(model.theta_vec.size), 0)
    adam_phi = (np.zeros(model.phi_vec.size), np.zeros(model.phi_vec.size), 0)

    def log_row(epoch, grad_norm):
        gap = gap_mc(model, config.alpha, config.n_importance, config.gap_replicates,
                     stream.child(1))
        traj.rows.append(TrajectoryRow(epoch=epoch, progress=model.progress,
                                       gap_mean=gap.mean, gap_se=gap.std_error,
                                       grad_norm=grad_norm))

    log_row(0, 0.0)
    for epoch, normals in _epoch_draws(config, stream, model.train_normals(config.n_importance),
                                       ndtri):
        if model.TRAINS_THETA:
            _, w_sum, wz = model.train_sums(normals, config.alpha, (0, 1))
            g_theta, g_rep, g_drep = _contract(model.score_affine(), w_sum, wz)
            g_phi = g_rep if config.estimator == "rep" else g_drep
        else:
            row = 0 if config.estimator == "rep" else 1
            _, w_sum, wz = model.train_sums(normals, config.alpha, (row,))
            g_phi, = _contract(model.score_affine(), w_sum, wz, (config.estimator,), (row,))
        norm_sq = float(np.dot(g_phi, g_phi))
        if model.TRAINS_THETA:
            norm_sq += float(np.dot(g_theta, g_theta))
        grad_norm = float(np.sqrt(norm_sq))
        if grad_norm > GRAD_NORM_LIMIT:
            raise TrainingDiverged(f"gradient norm {grad_norm:.3e} at epoch {epoch}")
        if model.TRAINS_THETA:
            if config.optimizer == "sgd":
                model = model.with_theta(_sgd_step(model.theta_vec, g_theta,
                                                   config.learning_rate))
            else:
                adam_theta, new_theta = _adam_step(adam_theta, model.theta_vec, g_theta,
                                                   config.learning_rate)
                model = model.with_theta(new_theta)
        if config.optimizer == "sgd":
            model = model.with_phi(_sgd_step(model.phi_vec, g_phi, config.learning_rate))
        else:
            adam_phi, new_phi = _adam_step(adam_phi, model.phi_vec, g_phi, config.learning_rate)
            model = model.with_phi(new_phi)
        if epoch % config.log_every == 0 or epoch == config.epochs:
            log_row(epoch, grad_norm)
    return traj


_MODELS = {"toy": lambda: toy(4, phi=0.8), "lingauss": lambda: lingauss(3, seed=2)}


@pytest.mark.parametrize("name, optimizer, estimator", [
    (name, optimizer, estimator) for name in sorted(_MODELS) for optimizer in ("adam", "sgd")
    for estimator in ("drep", "rep") if (name, optimizer) != ("toy", "sgd")])
def test_rows_equal_the_rebuilding_loop(name, optimizer, estimator):
    # stepping one private model in place and contracting only the stepped
    # gradients rounds as rebuilding the model every epoch does: every
    # column of every row is equal, grad_norm and progress included.  Toy
    # SGD runs the chain instead (see test_sgd_chain_has_the_law_of_the_loop)
    config = TrainConfig(alpha=0.3, n_importance=7, estimator=estimator, optimizer=optimizer,
                         learning_rate=3e-2, epochs=40, log_every=3, gap_replicates=3)
    stream = make_stream(21, 4)
    got = _rows(run_training(_MODELS[name](), config, stream))
    want = _rows(_rebuilding_training(_MODELS[name](), config, stream))
    assert len(got) == 15
    assert got == want
    assert len({r["grad_norm"] for r in got}) == len(got)


@pytest.mark.parametrize("optimizer, estimator, d, width", [
    ("sgd", "rep", 5, 7 + 3), ("sgd", "drep", 5, 7), ("sgd", "rep", 1, 7),
    ("adam", "rep", 5, 7 + 5), ("adam", "drep", 5, 7 + 5)],
    ids=["sgd-rep", "sgd-drep", "sgd-rep-d1", "adam-rep", "adam-drep"])
def test_toy_run_reads_one_block_of_uniforms(monkeypatch, optimizer, estimator, d, width):
    # a toy run draws all its epochs from one (epochs, width) block of
    # uniforms of the run's key, which the chunk target splits into several
    # calls.  SGD runs the chain: N + 3 uniforms per rep epoch where d > 1
    # (Z and C ~ chi^2_(d-1)), N per drep epoch or at d = 1, and no
    # train_sums.  Adam reads N + d normals per epoch and steps on the sums
    # of its estimator's weight row alone
    n, epochs = 7, 9
    config = TrainConfig(alpha=0.3, n_importance=n, estimator=estimator, optimizer=optimizer,
                         epochs=epochs, log_every=epochs, learning_rate=1e-2, gap_replicates=2)
    stream = make_stream(17, 3)
    calls, sums = [], []

    def recording(draws, shape):
        calls.append(((draws.seed, draws.stream_id), shape))
        return uniform(draws, shape)

    def train_sums(self, normals, alpha, rows=(0,), _f=GaussianToy.train_sums):
        sums.append((normals.shape, rows))
        return _f(self, normals, alpha, rows)

    monkeypatch.setattr(vrng, "uniform", recording)
    monkeypatch.setattr(GaussianToy, "train_sums", train_sums)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 3 * width)
    got = _rows(run_training(toy(d), config, stream))
    # chunks of epochs, in order, make up the one block
    shapes = [shape for key, shape in calls if key == (17, 3)]
    assert len(shapes) == 3 and {cols for _, cols in shapes} == {width}
    assert sum(rows for rows, _ in shapes) == epochs
    if optimizer == "sgd":
        assert sums == []
    else:
        row = 0 if estimator == "rep" else 1
        assert sums == [((n + d,), (row,))] * epochs
        assert got == _rows(_rebuilding_training(toy(d), config, stream))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("name", sorted(_MODELS))
def test_callers_model_is_untouched(name, optimizer):
    model = _MODELS[name]()
    theta, phi = model.theta_vec.tobytes(), model.phi_vec.tobytes()
    config = TrainConfig(alpha=0.2, n_importance=5, optimizer=optimizer, learning_rate=5e-2,
                         epochs=12, log_every=4, gap_replicates=2)
    first = _rows(run_training(model, config, make_stream(3, 0)))
    assert model.theta_vec.tobytes() == theta
    assert model.phi_vec.tobytes() == phi
    assert first[-1]["progress"] != first[0]["progress"]
    assert _rows(run_training(model, config, make_stream(3, 0))) == first


@pytest.mark.parametrize("name, optimizer, scores", [
    pytest.param("lingauss", "sgd", 1, id="lingauss"), pytest.param("toy", "sgd", 0, id="toy"),
    pytest.param("toy", "adam", 1, id="toy-adam")])
def test_epochs_build_no_model_and_no_scores(monkeypatch, name, optimizer, scores):
    # a run builds its private model once, and the score coefficients of
    # the array kernel once, however many epochs it steps; the toy's SGD
    # chain builds no scores
    cls = type(_MODELS[name]())
    counts = {"__post_init__": 0, "score_affine": 0}
    for method in counts:
        def counted(self, *args, _method=method, _f=getattr(cls, method)):
            counts[_method] += 1
            return _f(self, *args)
        monkeypatch.setattr(cls, method, counted)
    seen = []
    for epochs in (5, 50):
        model = _MODELS[name]()
        config = TrainConfig(alpha=0.2, n_importance=5, optimizer=optimizer, epochs=epochs,
                             log_every=epochs, learning_rate=1e-2, gap_replicates=2)
        for method in counts:
            counts[method] = 0
        run_training(model, config, make_stream(4, 0))
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"__post_init__": 1, "score_affine": scores}


# --------------------------------------------------------------------------
# the toy's SGD chain against the array kernel, in law
# --------------------------------------------------------------------------

CHAIN_SEEDS = 300
# two statistics for each of the six cases below
CHAIN_P_MIN = 0.01 / 12


def _final_rows(config, d, base):
    rows = [run_training(toy(d), config, make_stream(seed, base)).rows[-1]
            for seed in range(CHAIN_SEEDS)]
    return np.array([(r.progress, r.grad_norm) for r in rows])


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("estimator", ["rep", "drep"])
def test_sgd_chain_has_the_law_of_the_loop(monkeypatch, estimator, d):
    # the chain in b^2 against the loop that steps phi on the toy's one-row
    # draw (whose own oracle is the eps path, see test_gradients): the final
    # progress and grad_norm agree in distribution (two-sample KS, Bonferroni
    # over the 12 tests).  At this N, lr and epoch count the chain fails with
    # chi^2_d in place of chi^2_(d-1), with no perpendicular term, or with the
    # sign of sum s Z flipped
    config = TrainConfig(alpha=0.3, n_importance=2, estimator=estimator, learning_rate=0.2,
                         epochs=30, log_every=30, gap_replicates=2)
    chain = _final_rows(config, d, 1)
    monkeypatch.setattr(GaussianToy, "sgd_chain", _Model.sgd_chain)
    loop = _final_rows(config, d, 2)
    for k in range(2):
        assert ks_2samp(chain[:, k], loop[:, k]).pvalue > CHAIN_P_MIN
