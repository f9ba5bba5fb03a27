"""The exact log-weight law against the d-dimensional path.

Both models draw their law from the four scalars (c, ||v||^2, q, d) of
`law_scalars`: c - ||v|| Z + q (Z^2 + C), with Z ~ N(0, 1) and
C ~ chi^2_(d-1).  `law_log_weights(law_variates(u, s), s)`, with s those
scalars, so replaces d normals per log-weight by the LAW_WORDS uniforms u in
the gap, collapse, weights and gap_mc samplers.  The path (`reparam` +
`log_relative_weight`) stays the reference: the two must agree in
distribution (two-sample KS), the law must match the mean and variance of
`closed_forms` (for the toy, those of the log-normal law of B), and at d = 1
the toy law must equal the path on the same uniforms.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import ks_2samp

from vriwae.experiments import make_linear_gaussian, make_toy
from vriwae.models import GaussianToy, closed_forms
from vriwae.rng import make_stream, standard_normal, uniform

KS_SAMPLES = 4000
MOMENT_SAMPLES = 200_000

CASES = ([("toy", d, None) for d in (1, 10, 1000)]
         + [("lingauss", d, sp) for d in (1, 2, 20, 1000) for sp in (0.0, 0.3)])
# A5's dimension: too large for the d-dimensional path, not for the law
MOMENT_CASES = CASES + [("lingauss", 60_000, sp) for sp in (0.0, 0.3)]


def build(kind, d, sigma_perturb):
    if kind == "toy":
        return make_toy(d)
    return make_linear_gaussian(d, sigma_perturb, seed=7)[0]


def law_of(model, u):
    """The model's relative log-weights (...) from uniforms (..., LAW_WORDS)."""
    s = model.law_scalars()
    return model.law_log_weights(model.law_variates(u, s), s)


def law_samples(model, n, seed):
    return law_of(model, uniform(make_stream(seed, 0), (n, model.LAW_WORDS)))


@pytest.mark.parametrize("kind, d, sigma_perturb", CASES)
def test_law_matches_path_in_distribution(kind, d, sigma_perturb):
    model = build(kind, d, sigma_perturb)
    eps = standard_normal(make_stream(11, d), (KS_SAMPLES, d))
    path = model.log_relative_weight(model.reparam(eps))
    law = law_samples(model, KS_SAMPLES, 12 + d)
    assert law.shape == (KS_SAMPLES,)
    assert ks_2samp(law, path).pvalue > 1e-3


@pytest.mark.parametrize("kind, d, sigma_perturb", MOMENT_CASES)
def test_law_closed_form_moments(kind, d, sigma_perturb):
    model = build(kind, d, sigma_perturb)
    _, _, mean, sigma2, _ = closed_forms(model, 0.0)
    var = d * sigma2
    if kind == "toy":   # the log-normal law of B = ||theta - phi||
        b2 = float(np.sum((model.theta - model.phi) ** 2))
        assert (mean, var) == pytest.approx((-0.5 * b2, b2))
    x = law_samples(model, MOMENT_SAMPLES, 21 + d)
    dev2 = (x - x.mean()) ** 2
    se_mean = x.std(ddof=1) / math.sqrt(x.size)
    se_var = dev2.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - mean) < 5.0 * se_mean
    assert abs(x.var(ddof=1) - var) < 5.0 * se_var


def test_toy_law_equals_path_at_d1():
    model = GaussianToy(d=1, theta=np.array([-0.3]), phi=np.array([1.2]))
    u = uniform(make_stream(31, 0), (50_000, 1))
    path = model.log_relative_weight(model.reparam(ndtri(u)))
    law = law_of(model, u)
    assert np.allclose(law, path, rtol=1e-12, atol=1e-12)

