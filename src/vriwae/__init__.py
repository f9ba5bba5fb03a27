"""VR-IWAE bound estimators, gradient diagnostics, and asymptotic-curve
experiments on two analytic Gaussian testbeds."""

from .asymptotics import (expected_min_normal, fit_constant, iid_sum_curve, lognormal_curve,
                          one_over_n_curve, slope_fit)
from .bounds import BoundEstimate, gap_mc, vr_iwae_from_log_weights
from .gradients import fd_grad_oracle, snr_sweep
from .models import GaussianToy, LinearGaussian, closed_forms, optimal_params, perturb_params
from .rng import RngStream, make_stream, standard_normal, uniform
from .train import TrainConfig, Trajectory, run_training
from .weights import qq_points

__version__ = "0.1.0"
