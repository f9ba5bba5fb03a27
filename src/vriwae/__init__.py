"""VR-IWAE bound estimators, gradient diagnostics, and asymptotic-curve
experiments on two analytic Gaussian testbeds."""

from .asymptotics import (expected_min_normal, fit_constant, iid_sum_curve, lognormal_curve,
                          one_over_n_curve, slope_fit)
from .bounds import (BoundEstimate, bound_mc, decomposition_sample, gap_mc,
                     vr_iwae_from_log_weights)
from .gradients import fd_grad_oracle, h_coefficients, snr_sweep
from .models import (GaussianToy, LinearGaussian, lingauss_analytics, optimal_params,
                     perturb_params, toy_analytics)
from .rng import RngStream, make_stream, standard_normal, uniform
from .train import TrainConfig, Trajectory, adam_step, run_training, sgd_step
from .weights import (LogWeights, ess, max_weight_share, qq_points, relative_log_weights,
                      t_statistic)

__version__ = "0.1.0"
