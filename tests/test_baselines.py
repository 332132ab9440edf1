"""Tests for the mean-loss and worst-case baselines."""

import math

import numpy as np
import pytest
from scipy.special import expit

from helpers import count_calls, dro_objective, reference_dro_eta
from vfair import baselines, nnet
from vfair.baselines import ETA_CONSTANTS_KEPT, DroConfig, dro_direction, dro_eta
from vfair.errors import ConfigError
from vfair.harness import Sgd, config_from_dict
from vfair.nnet import (
    Batch,
    ModelSpec,
    forward,
    init_params,
    per_example_losses,
)
from vfair.update import grad_mu


def linear_regression_batch():
    spec = ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="regression_mse")
    batch = Batch(features=np.array([[1.0]]), targets=np.array([0.0]))
    return spec, batch


# ---------------------------------------------------------------------------
# ERM
# ---------------------------------------------------------------------------


def test_erm_step_hand_value():
    # w=1, b=0 on (x=1, y=0): gradient (2, 2); step 0.1 lands at (0.8, -0.2)
    spec, batch = linear_regression_batch()
    params = np.array([1.0, 0.0])
    Sgd(0.1).step(params, grad_mu(spec, params, batch))
    np.testing.assert_allclose(params, [0.8, -0.2])


def test_erm_step_requires_positive_step_size():
    dataset = {"kind": "synthetic", "n": 20, "group_ratio": 0.3, "feature_dim": 2,
               "minority_shift": 1.0, "noise_std": 0.1}
    with pytest.raises(ConfigError, match="step_size"):
        config_from_dict({"dataset": dataset, "methods": ["erm"], "step_size": 0.0})


# ---------------------------------------------------------------------------
# DRO scale / eta search
# ---------------------------------------------------------------------------


def test_dro_scale_formula():
    assert DroConfig(alpha_min=0.5).scale == pytest.approx(math.sqrt(3.0))
    assert DroConfig(alpha_min=0.2).scale == pytest.approx(math.sqrt(33.0))
    # C is a field set once when the config is built, bit for bit the
    # formula, with C^2 finite down to a tiny alpha_min
    for alpha_min in (0.2, 0.5, 1e-150):
        cfg = DroConfig(alpha_min=alpha_min)
        assert cfg.scale == math.sqrt(2.0 * (1.0 / alpha_min - 1.0) ** 2 + 1.0)
        assert math.isfinite(cfg.scale**2)
    with pytest.raises(TypeError):
        DroConfig(alpha_min=0.2, scale=1.0)  # derived, not passed


def test_dro_config_validation():
    with pytest.raises(ConfigError):
        DroConfig(alpha_min=0.0)
    with pytest.raises(ConfigError):
        DroConfig(alpha_min=1.0)


@pytest.mark.parametrize("alpha_min", [1e-300, 7e-155, 1e-154, 5e-324])
def test_dro_config_refuses_an_alpha_min_whose_c_squared_overflows(alpha_min):
    # C^2 = 2 (1/alpha_min - 1)^2 + 1 overflows either as a float's ** 2
    # raising (1e-300, 7e-155) or as * and sqrt reaching inf (1e-154, 5e-324)
    with pytest.raises(ConfigError, match="alpha_min"):
        DroConfig(alpha_min=alpha_min)
    dataset = {"kind": "synthetic", "n": 20, "group_ratio": 0.3, "feature_dim": 2,
               "minority_shift": 1.0, "noise_std": 0.1}
    with pytest.raises(ConfigError, match="alpha_min"):
        config_from_dict({"dataset": dataset, "methods": ["dro"], "dro_alpha_min": alpha_min})


def test_dro_eta_two_point_batch():
    # for losses [0, 1] at alpha_min = 0.5 the dual keeps decreasing up
    # to the largest loss, so eta* = 1
    eta = dro_eta(np.array([0.0, 1.0]), DroConfig(alpha_min=0.5))
    assert eta == pytest.approx(1.0, abs=1e-3)


def eta_lower_bound(losses, cfg):
    """A closed-form lower bound on eta*.

    For eta <= min l every hinge is active, so with the batch mean m and
    variance v, F(eta) = C * sqrt(v + (m - eta)^2) + eta.  Its derivative
    1 - C * t / sqrt(v + t^2), t = m - eta, is negative exactly when
    t > sqrt(v / (C^2 - 1)) (C > 1 always).  So F falls all the way up
    to min(min l, m - sqrt(v / (C^2 - 1))), and eta* cannot lie below it.
    """
    return min(losses.min(), losses.mean() - math.sqrt(losses.var() / (cfg.scale**2 - 1.0)))


def test_dro_eta_matches_grid_oracle():
    rng = np.random.default_rng(20)
    for _ in range(40):
        losses = rng.uniform(0.0, 3.0, size=int(rng.integers(2, 60)))
        cfg = DroConfig(alpha_min=float(rng.uniform(0.15, 0.8)))
        eta = dro_eta(losses, cfg)
        # pad 1.0 on both sides of a range that surely holds eta*, spaced
        # no coarser than 40001 points over [min l - 1, max l + 1]
        lo, hi = eta_lower_bound(losses, cfg) - 1.0, losses.max() + 1.0
        step = (losses.max() - losses.min() + 2.0) / 40000
        grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)
        vals = dro_objective(losses, grid, cfg)
        best = grid[int(np.argmin(vals))]
        # compare objective values, not locations (flat-bottomed cases)
        assert dro_objective(losses, eta, cfg) <= vals.min() + 1e-6
        assert abs(dro_objective(losses, eta, cfg) - dro_objective(losses, best, cfg)) <= 1e-6


def test_dro_eta_is_max_loss_when_scale_reaches_sqrt_batch():
    # C = 5.745 > sqrt(26): F only rises from max l, so eta* is max l
    # exactly and the step is exactly zero
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="regression_mse")
    rng = np.random.default_rng(24)
    batch = Batch(features=rng.normal(size=(26, 2)), targets=rng.normal(size=26) * 3.0)
    params = init_params(spec, seed=4)
    cfg = DroConfig(alpha_min=0.2)
    assert cfg.scale >= math.sqrt(26)
    losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
    grad, eta = dro_direction(spec, params, batch, cfg)
    assert eta == losses.max()
    assert np.array_equal(grad, np.zeros_like(params))


def test_dro_eta_below_min_loss_minus_one():
    # a weak adversary (C^2 = 1.14) on widely spread losses puts eta* far
    # below every loss, where it is m - sqrt(v / (C^2 - 1))
    losses = np.array([0.0, 0.1, 3.9, 4.0, 0.2, 3.8])
    cfg = DroConfig(alpha_min=0.79)
    eta = dro_eta(losses, cfg)
    assert eta < losses.min() - 1.0
    assert eta == pytest.approx(eta_lower_bound(losses, cfg), rel=1e-12)
    grid = np.linspace(eta - 1.0, losses.max() + 1.0, 20001)
    assert dro_objective(losses, eta, cfg) <= dro_objective(losses, grid, cfg).min() + 1e-12


def test_dro_eta_overflowed_sums_give_nan_not_an_error():
    # finite losses whose squared prefix sums overflow: no segment test
    # holds, so eta* falls back to m = b and comes back NaN for the next
    # loss check to report; run_experiment's errstate is reproduced here
    losses = np.linspace(0.0, 1e300, 40)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = dro_eta(losses, DroConfig())
    assert math.isnan(eta)


def _same_bits(got: float, want: float) -> bool:
    return (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()


def _eta_draw(rng, b: int, kind: str) -> np.ndarray:
    """Non-negative losses of one kind: spread, tied, all equal, or so large
    that dro_eta's squared prefix sums overflow."""
    if kind == "spread":
        return rng.exponential(float(rng.choice([1e-3, 1.0, 50.0])), size=b)
    if kind == "tied":
        return rng.integers(0, 4, size=b) * 0.25
    if kind == "equal":
        return np.full(b, float(rng.uniform(0.0, 3.0)))
    return rng.uniform(0.0, 1e300, size=b)


def test_dro_eta_keeps_the_bits_of_its_per_call_form():
    # the constants each config keeps per batch size change no bit of eta*
    # against the closed form that builds them every call, over batch
    # sizes either side of C^2 = 33 and 3 and with each config's store
    # serving every size in turn; run_experiment's errstate is reproduced
    rng = np.random.default_rng(34)
    sizes = [1, 26, 33, 34, 128, 368, 512]
    kinds = ["spread", "tied", "equal", "overflow"]
    configs = [DroConfig(alpha_min=a) for a in (0.2, 0.5, 0.79)]
    nans = draws = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            for cfg in configs:
                for b in rng.permutation(sizes):
                    losses = _eta_draw(rng, int(b), kinds[draws % len(kinds)])
                    got, want = dro_eta(losses, cfg), reference_dro_eta(losses, cfg)
                    assert _same_bits(got, want), (cfg.alpha_min, b, losses)
                    nans += math.isnan(got)
                    draws += 1
    assert draws >= 2000 and nans > 0  # the overflow draws reached the NaN fallback
    # a config's store keeps at most ETA_CONSTANTS_KEPT sizes however many it
    # sees, and a size it dropped is made again to the same bits
    cfg = configs[2]
    for b in [*range(2, 200), *rng.integers(2, 200, size=200)]:
        losses = _eta_draw(rng, int(b), "spread")
        assert _same_bits(dro_eta(losses, cfg), reference_dro_eta(losses, cfg))
        assert len(cfg._constants) <= ETA_CONSTANTS_KEPT


# ---------------------------------------------------------------------------
# DRO step
# ---------------------------------------------------------------------------


def test_dro_step_zero_when_all_losses_equal():
    # equal losses put eta* at the shared value; every positive part is
    # zero and the parameters must not move
    spec = ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="regression_mse")
    batch = Batch(features=np.ones((4, 1)), targets=np.full(4, 1.0))
    grad, _ = dro_direction(spec, np.zeros(2), batch, DroConfig(alpha_min=0.5))
    assert np.array_equal(grad, np.zeros(2))


def test_dro_direction_weights_only_tail_examples():
    spec = ModelSpec(input_dim=2, hidden_dims=(), output_dim=1, task="regression_mse")
    rng = np.random.default_rng(21)
    batch = Batch(
        features=rng.normal(size=(12, 2)),
        targets=rng.normal(size=12) * 3.0,
    )
    params = init_params(spec, seed=2)
    losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
    cfg = DroConfig(alpha_min=0.4)
    eta = dro_eta(losses, cfg)
    assert losses.min() < eta < losses.max() + 1.0
    pos = np.maximum(losses - eta, 0.0)
    assert np.any(pos > 0.0)
    assert np.any(pos == 0.0)


def test_dro_direction_one_forward_no_objective_calls(monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, "forward", nnet.forward_cache, nnet, baselines)
    count_calls(monkeypatch, counts, "backward", nnet.weighted_gradient, baselines)
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="regression_mse")
    rng = np.random.default_rng(25)
    batch = Batch(features=rng.normal(size=(40, 2)), targets=rng.normal(size=40))
    dro_direction(spec, init_params(spec, seed=6), batch, DroConfig(alpha_min=0.4))
    assert counts == {"forward": 1, "backward": 1}


def test_dro_gradient_matches_fd_of_minimized_dual():
    # central differences through the full min_eta F(theta; eta), inner
    # search re-run at every probe
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 25:
        task = str(rng.choice(["regression_mse", "binary_bce", "logistic_regression_mse"]))
        spec = ModelSpec(
            input_dim=int(rng.integers(1, 4)),
            hidden_dims=(int(rng.integers(2, 5)),),
            output_dim=1,
            task=task,
            activation="sigmoid",
        )
        b = int(rng.integers(10, 20))
        x = rng.normal(size=(b, spec.input_dim))
        y = rng.normal(size=b) if task == "regression_mse" else rng.integers(0, 2, size=b).astype(float)
        batch = Batch(features=x, targets=y)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        cfg = DroConfig(alpha_min=0.4)

        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        eta = dro_eta(losses, cfg)
        pos = np.maximum(losses - eta, 0.0)
        if math.sqrt(float(np.mean(pos**2))) < 1e-4:
            continue  # degenerate draw: kink-dominated, no meaningful gradient
        grad, _ = dro_direction(spec, params, batch, cfg)

        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        h = 1e-6

        def g_value(p):
            l = per_example_losses(spec, forward(spec, p, batch), batch.targets)
            return dro_objective(l, dro_eta(l, cfg), cfg)

        fd = (g_value(params + h * d) - g_value(params - h * d)) / (2.0 * h)
        assert fd == pytest.approx(float(grad @ d), rel=1e-4, abs=1e-6)
        checked += 1


def test_dro_long_training_approaches_uniform_quarter_loss():
    # two subpopulations with exactly opposed labels: the worst-case
    # objective is minimized by predicting 1/2 everywhere, i.e. every
    # squared error near 0.25
    rng = np.random.default_rng(23)
    n, d = 400, 3
    w_true = rng.normal(size=d)
    x = rng.normal(size=(n, d))
    minority = np.arange(n) < int(0.3 * n)
    logits = x @ w_true + 0.1 * rng.normal(size=n)
    y = np.where(minority, (-logits > 0.0), (logits > 0.0)).astype(float)

    spec = ModelSpec(input_dim=d, hidden_dims=(), output_dim=1, task="logistic_regression_mse")
    params = init_params(spec, seed=5)
    cfg = DroConfig(alpha_min=0.25)  # C ~ 4.36 < sqrt(64)
    order = np.arange(n)
    for epoch in range(60):
        rng.shuffle(order)
        for start in range(0, n, 64):
            idx = order[start : start + 64]
            if len(idx) < 2:
                continue
            batch = Batch(features=x[idx], targets=y[idx])
            params = params - 0.05 * dro_direction(spec, params, batch, cfg)[0]

    full = Batch(features=x, targets=y)
    losses = per_example_losses(spec, forward(spec, params, full), full.targets)
    assert 0.2 <= losses.mean() <= 0.3
    assert np.var(losses) <= 5e-3
    # and the fitted probabilities really sit near 1/2
    probs = expit(forward(spec, params, full)[:, 0])
    assert np.all(np.abs(probs - 0.5) < 0.2)
