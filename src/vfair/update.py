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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
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
        if self.ema_mean < 0.0:
            raise ConfigError("ema_mean cannot be negative for non-negative losses")


# ---------------------------------------------------------------------------
# Scalar pieces
# ---------------------------------------------------------------------------


def ema_update(mu_prev: float, losses: np.ndarray, decay: float) -> float:
    """mu_t = decay * mu_{t-1} + (1 - decay) * mean(losses)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) == 0:
        raise DataError("losses must be a non-empty 1-d array")
    if not 0.0 <= decay < 1.0:
        raise ConfigError("decay must be in [0, 1)")
    return float(decay * mu_prev + (1.0 - decay) * losses.mean())


def batch_sigma(losses: np.ndarray, mu: float) -> float:
    """Root mean squared deviation of the batch losses around mu, floored.

    mu is the running mean, not necessarily the batch mean, so this is
    not the batch standard deviation in general.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) == 0:
        raise DataError("losses must be a non-empty 1-d array")
    return max(SIGMA_FLOOR, float(np.sqrt(np.mean((losses - mu) ** 2))))


def lambda1(grad_mu_vec: np.ndarray, grad_secondary_vec: np.ndarray) -> float:
    """Projection bound: smallest non-negative lam keeping
    (lam * g_mu + g_sec) . g_mu >= EPSILON_PROJECTION * ||g_mu||^2.

    Returns 0 when the mean-loss gradient is numerically zero.
    """
    norm_sq = float(grad_mu_vec @ grad_mu_vec)
    if norm_sq < GRAD_NORM_FLOOR:
        return 0.0
    return max(0.0, EPSILON_PROJECTION - float(grad_mu_vec @ grad_secondary_vec) / norm_sq)


def lambda2(mu: float, sigma: float, cap: float = 3.0) -> float:
    """Weight-positivity bound for the std-dev objective: mu/sigma, capped.

    For non-negative losses the most negative z-score is -mu/sigma, so
    lam >= mu/sigma keeps every reweighting coefficient non-negative.
    The cap bounds the mean-loss emphasis when sigma is tiny relative
    to mu (a z-score beyond the cap is treated as an outlier tail).
    """
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive (apply the floor first)")
    return min(float(cap), mu / sigma)


def pairwise_coefficients(losses: np.ndarray) -> np.ndarray:
    """Signed coefficients of sum_i |l_(i) - l_(i+1)| over ascending order.

    Sorting first makes the consecutive-difference sum collapse to
    max - min, so interior coefficients are -1/0/+1 (ties contribute 0,
    using sign(0) = 0).  Returned in original example order.
    """
    losses = np.asarray(losses, dtype=np.float64)
    b = len(losses)
    phi_sorted = np.zeros(b)
    if b > 1:
        order = np.argsort(losses, kind="stable")
        s = losses[order]
        d = np.sign(s[1:] - s[:-1])
        phi_sorted[:-1] -= d
        phi_sorted[1:] += d
        phi = np.zeros(b)
        phi[order] = phi_sorted
        return phi
    return phi_sorted


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def grad_mu(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Gradient of the batch mean loss (uniform weights)."""
    return weighted_gradient(spec, params, batch, np.ones(len(batch)))


# ---------------------------------------------------------------------------
# The update itself
# ---------------------------------------------------------------------------


def _secondary(objective, losses, mu, sigma, floored, cap):
    """Per-example weight vector of the secondary objective and its lam2."""
    if objective == "std_dev":
        # a floored sigma means the spread is (numerically) zero: nothing to suppress
        sw = np.zeros_like(losses) if floored else (losses - mu) / sigma
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
    floored = sigma <= SIGMA_FLOOR

    sw, lam2 = _secondary(objective, losses, mu, sigma, floored, state.lambda2_cap)

    g_mu, g_sec = weighted_gradient(spec, params, batch, np.stack([np.ones_like(sw), sw]), cache)

    lam1 = lambda1(g_mu, g_sec)
    lam = max(lam1, lam2)
    direction = lam * g_mu + g_sec

    row = {
        "mu": mu,
        "sigma": sigma,
        "lambda1": lam1,
        "lambda2": lam2,
        "lambda": lam,
        "grad_mu_norm": float(np.linalg.norm(g_mu)),
        "grad_dot": float(g_mu @ g_sec),
        "weights_min": float((lam + sw).min()),
    }
    return direction, replace(state, ema_mean=mu), row
