"""Closed-form gap curve families and extreme-value constants.

Three one-parameter curve families describe the variational gap as a function
of the number of importance samples N:

* ``one_over_n_curve``: error_term - gamma2/(2N) + c1/N, the fixed-dimension
  large-N regime.
* ``lognormal_curve``: -B^2/2 + B*sqrt(2 log N) + log N/(alpha-1)
  + c2 * B * log log N / sqrt(log N), for exactly log-normal weights with
  std B in the high-dimensional regime.
* ``iid_sum_curve``: -d*a + sqrt(d)*sigma*sqrt(2 log N)
  + c2 * sqrt(d) * log log N / sqrt(log N), alpha-independent, for weights
  that are sums of d i.i.d. per-coordinate terms.

The extreme-value families are leading-order terms for large d.  On the
linear Gaussian testbed at d=1000 and lambda ~ 0 (a ~ 0.0228,
sigma ~ 0.236), N = 2..512 lies outside the range where the iid-sum curve
holds: its growth term sqrt(d)*sigma*sqrt(2 log N) is 38-115% of d*a, and
the unfitted curve exceeds 0 for N >= 128 (+0.39, +2.00, +3.50 at N = 128,
256, 512), where no gap can be.  The measured gaps there also depend on
alpha, which the iid-sum family does not: at N=512 (sigma_perturb 0, seed 0,
1000 replicates) they are -6.75 (alpha=0, SE 0.07) and -11.32 (alpha=0.5,
SE 0.05).  Which condition on d and N the
paper states for this regime cannot be settled from this repository, which
holds only the paper's abstract.  The curve's own condition, the growth term
within 15% of d*a up to N = 512, needs d >= 5.9e4; the acceptance test of
this regime runs at d = 6e4.

The free constant of each family (c1 or c2) is fitted by one-parameter linear
least squares rather than tailored by hand.

The extreme-value side: for N i.i.d. standard normals the expected minimum is
-sqrt(2 log N) to leading order; the refined version uses the Gumbel limit
centering a_N = 1/sqrt(2 log N), b_N = sqrt(2 log N)
- (log log N + log 4 pi)/(2 sqrt(2 log N)) and the Euler-Mascheroni constant.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "EULER_MASCHERONI",
    "one_over_n_curve",
    "lognormal_curve",
    "iid_sum_curve",
    "expected_min_normal",
    "fit_constant",
    "SlopeFit",
    "slope_fit",
]

EULER_MASCHERONI = 0.577215664902


def one_over_n_curve(n: int, error_term: float, gamma2: float, c1: float) -> float:
    """error_term - gamma2/(2N) + c1/N."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return error_term - gamma2 / (2.0 * n) + c1 / n


def _check_extreme_n(n: int) -> float:
    # log log N must be defined and positive
    if n < 3:
        raise ValueError("extreme-value curves need N >= 3")
    return math.log(n)


def lognormal_curve(n: int, b_d: float, alpha: float, c2: float) -> float:
    """-B^2/2 + B sqrt(2 log N) + log N/(alpha-1) + c2 B log log N / sqrt(log N)."""
    ln = _check_extreme_n(n)
    return (-0.5 * b_d * b_d + b_d * math.sqrt(2.0 * ln) + ln / (alpha - 1.0)
            + c2 * b_d * math.log(ln) / math.sqrt(ln))


def iid_sum_curve(n: int, d: int, a_const: float, sigma: float, c2: float) -> float:
    """-d a + sqrt(d) sigma sqrt(2 log N) + c2 sqrt(d) log log N / sqrt(log N).

    Leading order only: with c2 = 0 the value exceeds 0 once
    sigma*sqrt(2 log N) > sqrt(d)*a, e.g. for N >= 128 on the linear
    Gaussian testbed at d=1000 and lambda ~ 0 (see the module docstring).
    """
    ln = _check_extreme_n(n)
    rd = math.sqrt(d)
    return -d * a_const + rd * sigma * math.sqrt(2.0 * ln) + c2 * rd * math.log(ln) / math.sqrt(ln)


def expected_min_normal(n: int, refined: bool = True) -> float:
    """Asymptotic expected minimum of N i.i.d. standard normals.

    Crude mode returns -sqrt(2 log N); refined mode returns -(b_N + gamma*a_N)
    with the Gumbel-limit constants, accurate to O(1/log N) for large N.
    """
    ln = _check_extreme_n(n)
    root = math.sqrt(2.0 * ln)
    if not refined:
        return -root
    a_n = 1.0 / root
    b_n = root - (math.log(ln) + math.log(4.0 * math.pi)) / (2.0 * root)
    return -(b_n + EULER_MASCHERONI * a_n)


def fit_constant(base: Sequence[float], shape: Sequence[float],
                 observed: Sequence[float]) -> tuple[float, float]:
    """One-parameter least squares: c minimizing ||observed - base - c*shape||.

    Returns (c, rms_residual).  Closed form c = <shape, observed - base> /
    <shape, shape>.
    """
    base = np.asarray(base, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if not (base.shape == shape.shape == observed.shape) or base.size < 1:
        raise ValueError("base, shape, observed must have equal nonzero length")
    denom = float(np.dot(shape, shape))
    if denom == 0.0:
        raise ValueError("shape vector is identically zero")
    c = float(np.dot(shape, observed - base)) / denom
    resid = observed - base - c * shape
    # residuals can be astronomically large when the family is hopeless
    # (e.g. a 1/N curve with an overflowing variance constant); inf is the
    # honest answer there
    with np.errstate(over="ignore"):
        return c, float(np.sqrt(np.mean(resid * resid)))


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    slope_se: float


def slope_fit(log_x: Sequence[float], log_y: Sequence[float]) -> SlopeFit:
    """Ordinary least squares line through (log_x, log_y).

    slope_se is the usual OLS standard error (0 when only two points).
    """
    x = np.asarray(log_x, dtype=np.float64)
    y = np.asarray(log_y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    if x.size > 2:
        resid = y - intercept - slope * x
        s2 = float(np.sum(resid * resid)) / (x.size - 2)
        slope_se = math.sqrt(s2 / sxx)
    else:
        slope_se = 0.0
    return SlopeFit(slope=slope, intercept=intercept, slope_se=slope_se)
