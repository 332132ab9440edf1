"""Harmless variance-suppressing update.

The training objective is: minimize the spread of per-example losses
without leaving the set of parameters that are (near-)optimal for the
mean loss.  Each step combines the mean-loss gradient g_mu and a
secondary spread gradient g_sec as

    step = lam * g_mu + g_sec,       lam = max(lam1, lam2)

where lam1 keeps the combined step a descent direction for the mean
loss (projection bound: the combined step's inner product with g_mu
stays >= epsilon * ||g_mu||^2) and lam2 keeps every per-example weight
in the equivalent reweighted form non-negative.

Three secondary objectives are supported, differing only in their
per-example weight vector and in the closed form of lam2:

    std_dev    weights (l_i - mu) / sigma            lam2 = mu / sigma (capped)
    variance   weights 2 * (l_i - mu)                lam2 = 2 * (mu - min_i l_i)
    pairwise   signed coefficients of the sorted     lam2 = 2
               consecutive-difference sum

The running mean mu is an exponential moving average across batches
(bias left uncorrected, mu_0 = 0); sigma is computed per batch around
that running mean.  Each step's mu, sigma, lambdas, gradient norms and
smallest weight come back as a dict keyed by the step-trace columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .nnet import Batch, ModelSpec, forward_cache, per_example_losses, weighted_gradient

OBJECTIVES = ("std_dev", "variance", "pairwise")

# below this squared norm the mean-loss gradient is treated as zero and
# the projection term lam1 is skipped
GRAD_NORM_FLOOR = 1e-18
# lam1 keeps the step's inner product with g_mu at least this times ||g_mu||^2
EPSILON_PROJECTION = 1.0
# sigma never falls below this; at the floor the spread counts as zero
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class UpdateState:
    """Cross-batch state of the fair update (immutable; steps return a new one)."""

    ema_mean: float = 0.0
    decay: float = 0.99
    step_size: float = 0.01
    lambda2_cap: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError("decay must be in [0, 1)")
        if self.step_size <= 0.0:
            raise ConfigError("step_size must be positive")
        if self.lambda2_cap < 0.0:
            raise ConfigError("lambda2_cap must be >= 0")
        if self.ema_mean < 0.0:
            raise ConfigError("ema_mean cannot be negative for non-negative losses")


# ---------------------------------------------------------------------------
# Scalar pieces
# ---------------------------------------------------------------------------


def ema_update(mu_prev: float, losses: np.ndarray, decay: float) -> float:
    """mu_t = decay * mu_{t-1} + (1 - decay) * mean(losses).

    ``losses`` come from ``per_example_losses`` (a non-empty, finite,
    non-negative 1-d array) and ``decay`` from a validated UpdateState.
    """
    return float(decay * mu_prev + (1.0 - decay) * losses.mean())


def batch_sigma(losses: np.ndarray, mu: float) -> float:
    """Root mean squared deviation of the batch losses around mu, floored.

    mu is the running mean, not necessarily the batch mean, so this is
    not the batch standard deviation in general.  ``losses`` come from
    ``per_example_losses`` (a non-empty, finite 1-d array).
    """
    return max(SIGMA_FLOOR, float(np.sqrt(np.mean((losses - mu) ** 2))))


def lambda1(norm_sq: float, dot: float) -> float:
    """Projection bound from norm_sq = ||g_mu||^2 and dot = g_mu . g_sec:
    the smallest non-negative lam keeping
    (lam * g_mu + g_sec) . g_mu >= EPSILON_PROJECTION * ||g_mu||^2.

    Returns 0 when the mean-loss gradient is numerically zero.
    """
    if norm_sq < GRAD_NORM_FLOOR:
        return 0.0
    return max(0.0, EPSILON_PROJECTION - dot / norm_sq)


def lambda2(mu: float, sigma: float, cap: float) -> float:
    """Weight-positivity bound for the std-dev objective: mu/sigma, capped.

    For non-negative losses the most negative z-score is -mu/sigma, so
    lam >= mu/sigma keeps every reweighting coefficient non-negative.
    The cap bounds the mean-loss emphasis when sigma is tiny relative
    to mu (a z-score beyond the cap is treated as an outlier tail).
    ``sigma`` comes from ``batch_sigma``, so it is at least SIGMA_FLOOR.
    """
    return min(float(cap), mu / sigma)


def pairwise_coefficients(losses: np.ndarray) -> np.ndarray:
    """Signed coefficients of sum_i |l_(i) - l_(i+1)| over ascending order.

    Sorting first makes the consecutive-difference sum collapse to
    max - min, so interior coefficients are -1/0/+1 (ties contribute 0,
    using sign(0) = 0).  Returned in original example order.  ``losses``
    is the float64 1-d array that ``per_example_losses`` returns.
    """
    order = np.argsort(losses, kind="stable")
    d = np.sign(np.diff(losses[order]))
    phi = np.zeros(len(losses))
    phi[order[:-1]] -= d
    phi[order[1:]] += d
    return phi


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def grad_mu(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Gradient of the batch mean loss (uniform weights)."""
    return weighted_gradient(spec, params, batch, np.ones(len(batch)))


# ---------------------------------------------------------------------------
# The update itself
# ---------------------------------------------------------------------------


def _secondary(objective, losses, mu, sigma, cap):
    """Per-example weight vector of the secondary objective and its lam2.

    A negative variance lam2 (the running mean below every loss) is right
    as it is: every weight 2 * (l - mu) is then positive, and lam = lam1.
    """
    if objective == "std_dev":
        # a floored sigma means the spread is (numerically) zero: nothing to suppress
        sw = np.zeros_like(losses) if sigma <= SIGMA_FLOOR else (losses - mu) / sigma
        lam2 = lambda2(mu, sigma, cap)
    elif objective == "variance":
        sw = 2.0 * (losses - mu)
        lam2 = 2.0 * (mu - float(losses.min()))
    elif objective == "pairwise":
        sw = pairwise_coefficients(losses)
        lam2 = 2.0
    else:
        raise ConfigError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    return sw, lam2


def vfair_direction(
    state: UpdateState,
    spec: ModelSpec,
    params: np.ndarray,
    batch: Batch,
    objective: str = "std_dev",
) -> tuple[np.ndarray, UpdateState, dict]:
    """One update direction lam * g_mu + g_sec (not yet applied).

    Order of operations per batch: losses -> refresh running mean ->
    sigma around it -> both gradients -> lam1, lam2 -> combined
    direction.  One forward pass feeds the losses and a single stacked
    backward pass with weight rows [1, sw], which yields g_mu and g_sec
    together.  Returns (direction, advanced state, trace row); the row's
    keys are step-trace column names.
    """
    cache = forward_cache(spec, params, batch)
    losses = per_example_losses(spec, cache.outputs, batch.targets)
    mu = ema_update(state.ema_mean, losses, state.decay)
    sigma = batch_sigma(losses, mu)

    sw, lam2 = _secondary(objective, losses, mu, sigma, state.lambda2_cap)
    weights = np.empty((2, len(losses)))
    weights[0] = 1.0
    weights[1] = sw

    g_mu, g_sec = weighted_gradient(spec, params, batch, weights, cache)

    norm_sq = float(g_mu @ g_mu)
    dot = float(g_mu @ g_sec)
    lam1 = lambda1(norm_sq, dot)
    lam = max(lam1, lam2)
    direction = lam * g_mu + g_sec

    row = {
        "mu": mu,
        "sigma": sigma,
        "lambda1": lam1,
        "lambda2": lam2,
        "lambda": lam,
        "grad_mu_norm": math.sqrt(norm_sq),
        "grad_dot": dot,
        # rounding is monotone, so min(lam + sw) == lam + min(sw)
        "weights_min": lam + float(sw.min()),
    }
    return direction, replace(state, ema_mean=mu), row
