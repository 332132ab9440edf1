"""The worst-case reweighting baseline (plain mean-loss descent, the other
baseline, steps along `update.grad_mu`).

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

from .errors import ConfigError
from .nnet import Batch, ModelSpec, forward_cache, per_example_losses, weighted_gradient


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


def dro_eta(losses: np.ndarray, cfg: DroConfig) -> float:
    """Exact minimizer of the dual objective over eta.

    While the m largest losses lie above eta, F(eta) = C * sqrt(Q_m / b) + eta,
    Q_m = sum of their (l - eta)^2.  With prefix sums D1, D2 over the first m
    of d = max l - l sorted ascending, that smooth piece is minimal at

        eta_m = max l - (D1 + sqrt(b * (D2 - D1^2 / m) / (C^2 - b / m))) / m

    when C^2 > b / m.  F is convex, so eta* is the first eta_m (m rising)
    that is not below its segment, i.e. not below the (m+1)-th largest
    loss; m = b always qualifies.  With C >= sqrt(b), F rises from max l
    onward and eta* = max l.  ``losses`` come from ``per_example_losses``
    (finite, non-negative, non-empty); if their prefix sums overflow, m = b
    is taken and eta* is NaN, for the next loss check to report.
    """
    b = len(losses)
    c2 = cfg.scale**2
    top = float(losses.max())
    if c2 >= b:
        return top
    d = np.sort(top - losses)
    m = np.arange(1, b + 1)
    bm = b / m
    d1 = d.cumsum()
    spread = np.maximum((d * d).cumsum() - d1 * d1 / m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = (d1 + np.sqrt(b * spread / (c2 - bm))) / m
    qualifies = (c2 > bm) & (shift <= np.concatenate((d[1:], [np.inf])))
    qualifies[-1] = True  # fails only when an overflowed sum made shift NaN
    first = int(qualifies.argmax())
    return top - float(shift[first])


def dro_direction(
    spec: ModelSpec, params: np.ndarray, batch: Batch, cfg: DroConfig,
    layers: list | None = None,
) -> tuple[np.ndarray, float]:
    """Gradient of the eta-minimized dual objective, plus eta* itself.

    Weights (l_i - eta*)_+ vanish for every example at or below eta*
    (zero subgradient at the kink); if that kills the whole batch the
    returned direction is exactly zero.  ``layers``, the ``unpack`` views
    of ``params``, saves unpacking them.
    """
    cache = forward_cache(spec, params, batch, layers)
    losses = per_example_losses(spec, cache.outputs, batch.targets)
    eta = dro_eta(losses, cfg)
    pos = np.maximum(losses - eta, 0.0)
    denom = math.sqrt((pos**2).sum() / len(pos))
    if denom == 0.0:
        return np.zeros_like(np.asarray(params, dtype=np.float64)), eta
    grad = (cfg.scale / denom) * weighted_gradient(spec, params, batch, pos, cache)
    return grad, eta
