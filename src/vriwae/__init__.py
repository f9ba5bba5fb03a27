"""VR-IWAE bound estimators, gradient diagnostics, and asymptotic-curve
experiments on two analytic Gaussian testbeds."""

from .asymptotics import (AsymptoticCurve, CurveFamily, expected_min_normal,
                          fit_constant, iid_sum_curve, lognormal_curve,
                          one_over_n_curve, slope_fit)
from .bounds import (BoundEstimate, bound_mc, decomposition_sample, elbo_sample,
                     gap_mc, vr_iwae_from_log_weights, vr_iwae_sample)
from .gradients import (GradientSample, drep_grad_sample, fd_grad_oracle,
                        grad_mse_sweep, h_coefficients, rep_grad_sample, snr_sweep)
from .models import (GaussianToy, LinearGaussian, lingauss_analytics, make_dataset,
                     optimal_params, perturb_params, toy_analytics)
from .rng import RngStream, make_stream, standard_normal, uniform
from .train import TrainConfig, Trajectory, adam_step, run_training, sgd_step
from .weights import (LogWeights, ess, log_weight_moments, max_weight_share, qq_points,
                      relative_log_weights, t_statistic)

__version__ = "0.1.0"
