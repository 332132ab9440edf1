"""Shared test utilities: brute-force enumeration and finite-difference oracles.

These deliberately use the dumbest possible method (full enumeration,
central differences) so they can serve as independent checks of the
sampled / closed-form / analytic code paths.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

from vfair.baselines import DroConfig, dro_direction
from vfair.errors import ConfigError, DataError, NumericError
from vfair.metrics import (
    MAX_EXPECTED_DRAWS,
    RANK_METRICS,
    GroupPartition,
    build_report,
    group_utilities,
    higher_is_better,
)
from vfair.nnet import (
    Batch, ModelSpec, _expit, _loss_output_grad, forward, init_params, per_example_losses,
    unpack,
)
from vfair.update import UpdateState, grad_mu, vfair_direction

README = Path(__file__).resolve().parents[1] / "README.md"


def config_from_readme(**overrides) -> dict:
    """The README's config, its top-level keys and dataset keys overridden."""
    readme = README.read_text(encoding="utf-8")
    d = json.loads(readme.split("## Config schema", 1)[1].split("```json\n", 1)[1].split("```")[0])
    d["dataset"].update(overrides.pop("dataset", {}))
    d.update(overrides)
    return d


def all_set_partitions(n):
    """Every partition of range(n) into non-empty blocks, as group-id arrays.

    Canonical "restricted growth string" enumeration: element i may join
    any existing block or open the next one.  Bell(8) = 4140, so this
    stays tractable for the n <= 8 used in tests.
    """
    assignment = np.zeros(n, dtype=np.int64)

    def rec(i, max_used):
        if i == n:
            yield assignment.copy()
            return
        for g in range(max_used + 2):
            assignment[i] = g
            yield from rec(i + 1, max(max_used, g))

    yield from rec(1, 0) if n > 0 else iter(())


def all_surjective_assignments(n, k):
    """Every labeled assignment of n examples onto k non-empty groups."""
    assignment = np.zeros(n, dtype=np.int64)

    def rec(i):
        if i == n:
            if len(np.unique(assignment)) == k:
                yield assignment.copy()
            return
        for g in range(k):
            assignment[i] = g
            yield from rec(i + 1)

    yield from rec(0)


def group_means(values, assignment):
    """Mean of `values` within each group id present in `assignment`."""
    out = []
    for g in np.unique(assignment):
        out.append(values[assignment == g].mean())
    return np.asarray(out)


def group_mse_report(utilities):
    """`build_report` on a hand-built partition of one example per group,
    group g's mse `utilities[g]` (to rounding)."""
    k = len(utilities)
    preds = np.sqrt(np.asarray(utilities, dtype=np.float64))
    part = GroupPartition(group_of=np.arange(k), k=k)
    return build_report(preds, np.zeros(k), preds**2, part, "mse")


def count_calls(monkeypatch, counts, key, fn, *owners):
    """Rebind `fn` (by its name) in every module of `owners` to a wrapper
    that counts calls under counts[key]."""
    counts.setdefault(key, 0)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, fn.__name__, counted)


def dro_objective(losses, eta, cfg: DroConfig):
    """Dual value C * sqrt(mean (l - eta)_+^2) + eta, elementwise over an eta
    array: the grid oracle of `baselines.dro_eta`'s closed form."""
    losses = np.asarray(losses, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    pos = np.maximum(losses - eta[..., None], 0.0)
    value = cfg.scale * np.sqrt(np.mean(pos**2, axis=-1)) + eta
    return float(value) if value.ndim == 0 else value


def reference_pairwise_coefficients(losses):
    """Signed coefficients of sum_i |l_(i) - l_(i+1)| over a stable ascending
    sort, scattered back to example order: the bit oracle of
    `update.pairwise_coefficients` on losses whose ties, if any, are at the
    minimum or the maximum.  A tie strictly inside the range gets +1 and -1
    here, where the range's gradient is 0."""
    order = np.argsort(losses, kind="stable")
    ranked = losses[order]
    d = np.sign(ranked[1:] - ranked[:-1])
    coef = np.zeros(len(losses))
    coef[:-1] -= d
    coef[1:] += d
    phi = np.empty(len(losses))
    phi[order] = coef
    return phi


def dictwriter_csv(columns, rows) -> str:
    """CSV text of dict rows through `csv.DictWriter`, blanks for missing
    columns: the oracle of the column-wise step-trace writer and of
    `harness._write_csv`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def exact_too_many_draws(n, k):
    """Whether k^n / (number of surjections of n onto k) > MAX_EXPECTED_DRAWS,
    by inclusion-exclusion on Python ints: exact, but its cost grows with k
    and with n's digit count.  The oracle of `metrics._too_many_draws`."""
    surjections = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return k**n > MAX_EXPECTED_DRAWS * surjections


def loop_random_partition_rank(per_method_predictions, targets, k, trials, seed, kind):
    """Reference `[methods, 4]` average ranks: one boolean-mask one-group
    utility per group, per method, per trial, drawing each partition with
    `rng.integers(0, k, size=n)` until every group is hit."""
    methods = list(per_method_predictions)
    targets = np.asarray(targets)
    n = len(targets)
    sign = -1.0 if higher_is_better(kind) else 1.0

    def overall(p, t):
        return group_utilities(p, t, GroupPartition.whole(len(t)), kind)[0]

    util = np.array([overall(per_method_predictions[m], targets) for m in methods])
    rng = np.random.default_rng(seed)
    rank_sum = np.zeros((len(methods), len(RANK_METRICS)))
    for _ in range(trials):
        while True:
            g = rng.integers(0, k, size=n)
            if len(np.unique(g)) == k:
                break
        wu, mud, tud = [], [], []
        for m in methods:
            p = np.asarray(per_method_predictions[m])
            gu = np.array([overall(p[g == j], targets[g == j]) for j in range(k)])
            wu.append(sign * (gu.min() if higher_is_better(kind) else gu.max()))
            mud.append(gu.max() - gu.min())
            tud.append(np.abs(gu - gu.mean()).sum())
        for j, values in enumerate((sign * util, wu, mud, tud)):
            rank_sum[:, j] += stats.rankdata(values, method="average")
    return rank_sum / trials


def directional_derivative_fd(
    spec: ModelSpec,
    params: np.ndarray,
    batch: Batch,
    objective: str,
    direction: np.ndarray,
    h: float = 1e-6,
    weights: np.ndarray | None = None,
) -> float:
    """Central-difference directional derivative of a scalar batch objective.

    objective: "mean"      mean of per-example losses
               "sigma"     std-dev of per-example losses about the batch mean
               "weighted"  (1/b) * sum_i weights_i * loss_i (weights required)

    Used as an independent check of the analytic gradients; never called
    by training code.
    """
    if objective not in ("mean", "sigma", "weighted"):
        raise ConfigError(f"unknown fd objective {objective!r}")
    if objective == "weighted":
        if weights is None:
            raise ConfigError("objective 'weighted' needs a weights vector")
        weights = np.asarray(weights, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != np.asarray(params).shape:
        raise DataError("direction must match the parameter vector shape")

    def value(p):
        losses = per_example_losses(spec, forward(spec, p, batch), batch.targets)
        if objective == "mean":
            return float(losses.mean())
        if objective == "sigma":
            return float(np.sqrt(np.mean((losses - losses.mean()) ** 2)))
        return float(np.mean(weights * losses))

    return (value(params + h * direction) - value(params - h * direction)) / (2.0 * h)


def reference_forward(spec: ModelSpec, params: np.ndarray, batch: Batch, fold: bool = True):
    """(layer inputs, pre-activations, outputs) of one pass that keeps every
    pre-activation z and writes each activation to a new array: the bit
    oracle of `nnet.forward_cache`, which activates in place.  Layer 0 is
    the design matrix [x, 1] times a stacked copy of (W0; b0), as in the
    package; with ``fold=False`` it is the unfolded x @ W0 + b0 on a
    contiguous copy of the features."""
    layers = unpack(spec, params)
    inputs, preacts = [], []
    h = batch.design if fold else np.ascontiguousarray(batch.features)
    for idx, (w, b) in enumerate(layers):
        inputs.append(h)
        if idx == 0 and fold:
            z = h @ np.vstack([w, b])
        else:
            z = h @ w
            z += b
        preacts.append(z)
        if idx == len(layers) - 1 or spec.activation == "identity":
            h = z
        elif spec.activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = _expit(z)
    return inputs, preacts, h


def reference_weighted_gradient(spec: ModelSpec, params: np.ndarray, batch: Batch,
                                weights: np.ndarray, fold: bool = True) -> np.ndarray:
    """`nnet.weighted_gradient` with every weight row multiplied into the
    delta, a row of ones included, and each activation's derivative taken
    from its pre-activation z: the bit oracle of the backward pass.  Layer
    0's weight rows come from its input's product, the design matrix's (its
    ones column's row dropped) unless ``fold=False``; every bias row is
    rows @ delta."""
    layers = unpack(spec, params)
    inputs, preacts, outputs = reference_forward(spec, params, batch, fold)
    rows = weights if weights.ndim == 2 else weights[None]
    k = len(rows)
    grad = np.empty((k, len(params)))
    delta = _loss_output_grad(spec, outputs, batch.targets)
    delta *= 1.0 / len(batch)
    for l in range(len(layers) - 1, -1, -1):
        ws, (d_in, _), bs = spec.layout[l]
        grad[:, ws] = (inputs[l].T @ (rows[:, :, None] * delta))[:, :d_in].reshape(k, -1)
        grad[:, bs] = rows @ delta
        if l > 0:
            delta = delta @ layers[l][0].T
            z = preacts[l - 1]
            if spec.activation == "relu":
                delta *= z > 0.0
            elif spec.activation == "sigmoid":
                s = _expit(z)
                delta *= s * (1.0 - s)
    return grad if weights.ndim == 2 else grad[0]


def reference_train(cfg, spec: ModelSpec, train, method: str, seed: int, reference=None):
    """(selected params, selected epoch, per-epoch loss, trace) of one run,
    as `harness._train_one` returns them, from steps that share nothing:
    each calls `grad_mu`, `vfair_direction` or `dro_direction` without a
    workspace, and the optimizers are the plain `params - step * grad`
    forms.  A breakdown raises the NumericError `_train_one` raises.  The
    bit oracle of the training path."""
    objective = {"vfair_std": "std_dev", "vfair_var": "variance",
                 "vfair_pairwise": "pairwise"}.get(method)
    params = init_params(spec, seed)
    accum = np.zeros_like(params)
    state = UpdateState(decay=cfg.decay, lambda2_cap=cfg.lambda2_cap)
    dro_cfg = DroConfig(alpha_min=cfg.dro_alpha_min)
    rng = np.random.default_rng(seed)
    full = Batch(train.features, train.targets)
    rows, per_epoch_loss, best, best_epoch, step = [], [], None, 0, 0
    try:
        for epoch in range(cfg.epochs):
            shuffled = full.subset(rng.permutation(train.n))
            for start in range(0, train.n, cfg.batch_size):
                batch = shuffled.subset(slice(start, start + cfg.batch_size))
                if method == "erm":
                    grad = grad_mu(spec, params, batch)
                elif method == "dro":
                    grad, eta = dro_direction(spec, params, batch, dro_cfg)
                    rows.append({"eta": eta})
                else:
                    grad, state, row = vfair_direction(state, spec, params, batch, objective)
                    rows.append(row)
                if cfg.optimizer == "sgd":
                    params = params - cfg.step_size * grad
                else:
                    accum = accum + grad * grad
                    params = params - cfg.step_size * grad / (np.sqrt(accum) + 1e-10)
                step += 1
            losses = per_example_losses(spec, forward(spec, params, full), full.targets)
            per_epoch_loss.append(float(losses.mean()))
            if reference is None or epoch == 0 or (
                abs(per_epoch_loss[-1] - reference) < abs(per_epoch_loss[best_epoch] - reference)
            ):
                best, best_epoch = params, epoch
    except NumericError as exc:
        raise NumericError(f"{method} seed={seed} epoch={epoch} step={step}: {exc}") from exc
    trace = {}
    if rows:
        trace = {"step": np.arange(len(rows))}
        trace |= {c: np.array([r[c] for r in rows]) for c in rows[0]}
    return best, best_epoch, per_epoch_loss, trace
