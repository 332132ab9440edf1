"""Reference training rules: plain mean-loss descent and a worst-case
reweighting baseline.

The robust baseline minimizes, per batch, the dual form

    F(theta; eta) = C * sqrt(mean_i (l_i - eta)_+^2) + eta,
    C = sqrt(2 * (1/alpha_min - 1)^2 + 1)

over eta (a 1-d convex problem, solved exactly) and then takes
the gradient at the optimal eta, which reduces to a weighted gradient
with per-example weights (l_i - eta*)_+.  alpha_min is the smallest
subpopulation fraction the adversary may reweight onto; smaller values
mean a harder adversary (larger C).

At the positive-part kink (l_i == eta*) the subgradient is taken as 0;
in particular a batch whose losses are all <= eta* produces a zero
step.  Note that with C >= sqrt(batch size) the dual optimum sits at
eta* = max l and every step is exactly zero this way, so alpha_min and
the batch size have to be chosen together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .nnet import Batch, ModelSpec, forward_cache, per_example_losses, weighted_gradient
from .update import grad_mu


@dataclass(frozen=True)
class DroConfig:
    alpha_min: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.alpha_min < 1.0:
            raise ConfigError("alpha_min must be in (0, 1)")

    @property
    def scale(self) -> float:
        """C = sqrt(2 * (1/alpha_min - 1)^2 + 1)."""
        return math.sqrt(2.0 * (1.0 / self.alpha_min - 1.0) ** 2 + 1.0)


def erm_step(spec: ModelSpec, params: np.ndarray, batch: Batch, step_size: float) -> np.ndarray:
    """One plain gradient step on the batch mean loss."""
    if step_size <= 0.0:
        raise ConfigError("step_size must be positive")
    return params - step_size * grad_mu(spec, params, batch)


def dro_objective(losses: np.ndarray, eta, cfg: DroConfig):
    """Dual value C * sqrt(mean (l - eta)_+^2) + eta, elementwise over an eta array."""
    losses = np.asarray(losses, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    pos = np.maximum(losses - eta[..., None], 0.0)
    value = cfg.scale * np.sqrt(np.mean(pos**2, axis=-1)) + eta
    return float(value) if value.ndim == 0 else value


def dro_eta(losses: np.ndarray, cfg: DroConfig) -> float:
    """Exact minimizer of the dual objective over eta.

    While the m largest losses lie above eta, F(eta) = C * sqrt(Q_m / b) + eta,
    Q_m = sum of their (l - eta)^2.  With prefix sums D1, D2 over the first m
    of d = max l - l sorted ascending, that smooth piece is minimal at

        eta_m = max l - (D1 + sqrt(b * (D2 - D1^2 / m) / (C^2 - b / m))) / m

    when C^2 > b / m.  F is convex, so eta* is the first eta_m (m rising)
    that is not below its segment, i.e. not below the (m+1)-th largest
    loss; m = b always qualifies.  With C >= sqrt(b), F rises from max l
    onward and eta* = max l.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) == 0:
        raise DataError("losses must be a non-empty 1-d array")
    if not np.all(np.isfinite(losses)) or np.any(losses < 0.0):
        raise DataError("losses must be finite and non-negative")
    b = len(losses)
    c2 = cfg.scale**2
    top = float(losses.max())
    if c2 >= b:
        return top
    d = np.sort(top - losses)
    m = np.arange(1, b + 1)
    d1 = np.cumsum(d)
    spread = np.maximum(np.cumsum(d * d) - d1 * d1 / m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = (d1 + np.sqrt(b * spread / (c2 - b / m))) / m
    first = np.flatnonzero((c2 > b / m) & (shift <= np.append(d[1:], np.inf)))[0]
    return top - float(shift[first])


def dro_direction(
    spec: ModelSpec, params: np.ndarray, batch: Batch, cfg: DroConfig
) -> tuple[np.ndarray, float]:
    """Gradient of the eta-minimized dual objective, plus eta* itself.

    Weights (l_i - eta*)_+ vanish for every example at or below eta*
    (zero subgradient at the kink); if that kills the whole batch the
    returned direction is exactly zero.
    """
    cache = forward_cache(spec, params, batch)
    losses = per_example_losses(spec, cache.outputs, batch.targets)
    eta = dro_eta(losses, cfg)
    pos = np.maximum(losses - eta, 0.0)
    denom = math.sqrt(float(np.mean(pos**2)))
    if denom == 0.0:
        return np.zeros_like(np.asarray(params, dtype=np.float64)), eta
    grad = (cfg.scale / denom) * weighted_gradient(spec, params, batch, pos, cache)
    return grad, eta


def dro_step(
    spec: ModelSpec, params: np.ndarray, batch: Batch, cfg: DroConfig, step_size: float
) -> np.ndarray:
    """One descent step on the eta-minimized dual objective."""
    if step_size <= 0.0:
        raise ConfigError("step_size must be positive")
    grad, _ = dro_direction(spec, params, batch, cfg)
    return params - step_size * grad
