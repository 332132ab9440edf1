"""Small dense networks with per-example losses and weighted gradients.

Everything trains through one primitive: ``weighted_gradient`` computes
the parameter gradient of (1/b) * sum_i w_i * loss_i with the weight
vector treated as constants.  ERM, the robust baseline and the spread
update pass its three weight forms (none, one vector, one vector with the
mean gradient first), so the backprop code below is the only place
derivatives are taken.  The one-vector form, the robust baseline's,
backpropagates only the rows whose weight is not zero (the active set):
that baseline's weights vanish at and below its threshold.  The forward
pass keeps no pre-activations (each activation is applied in place), so
the backward takes each activation's derivative from the layer's output.

A ``Workspace`` stands for one parameter vector: it holds what no step
changes, the vector's (W, b) views, their transposes and the activation's
rules, and, per backward shape, the flat gradient, its per-layer views and
the backward's work arrays, whose leading n rows serve an active set of n
rows.  Every function taking ``params`` takes the flat vector or a
workspace over it; a training run builds one workspace for all its steps,
and a call given the vector builds a fresh one;
``weighted_gradient`` also takes a ``ForwardCache``, which stands for the
parameters its forward pass ran at.  A gradient returned through a
workspace is a view of its buffer, valid until the next same-shape call
through that workspace.

Whole-split evaluation (``forward``) runs the same forward pass over
fixed FORWARD_BLOCK_ROWS-row blocks, so its peak memory scales with the
block rather than the split; its outputs agree with a one-pass forward
to within ulps and are deterministic.

Parameters live in one flat float64 vector, laid out per layer as weight
matrix then bias (``ModelSpec.layout``), so gradients, parameters and
finite-difference probes are interchangeable, and layer 0's W0 then b0 is
one (d + 1) x h block.  A ``Batch`` holds its rows as the design matrix
[x, 1], so the input layer is one product, design @ (W0; b0), with no bias
pass.  Its backward writes the block from design^T @ delta, then every
bias row, b0's included, through the bias product, so bias bits do not
depend on the fold.  The fold keeps the bits of the unfolded x @ W0 + b0
where both products are matrix-matrix (gemm) products, as at the README
config's and the benchmark's shapes, which a test pins; where numpy routes
one of them to a matrix-vector kernel (no hidden layer and one output at
most feature counts, one-row batches, a single feature's W0 gradient), the
last bits may differ.  The folded product is ``@``, twice as fast as
``np.dot`` at [2048, 5] x [5, 64]; the other products call BLAS through
``np.dot``, the ``@`` gufunc's bits without its dispatch; the bias product
stays ``np.matmul``, whose ``out`` is a strided view ``np.dot`` refuses.
The logistic and the softmax are computed with numpy's ``exp``, whose
float64 kernel numpy picks by CPU feature, so their bits may vary by CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, NumericError

TASKS = ("regression_mse", "binary_bce", "multiclass_ce", "logistic_regression_mse")
# activation -> (apply in place to h, d activation / dz from the output a, for
# `delta *=`: ReLU's is the bool mask a > 0, the mask z > 0, sigmoid's a(1 - a))
_ACTIVATION_RULES = {
    "relu": (lambda h: np.maximum(h, 0.0, out=h), lambda a: a > 0.0),
    "sigmoid": (lambda h: _expit(h, out=h), lambda a: a * (1.0 - a)),
    "identity": (lambda h: h, lambda a: 1.0),
}
ACTIVATIONS = tuple(_ACTIVATION_RULES)
# the most parameters a ModelSpec takes (128 MiB per float64 vector; a run holds several)
MAX_PARAMETERS = 1 << 24


# ---------------------------------------------------------------------------
# Specs and batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + task description for a fully-connected network."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    task: str
    activation: str = "relu"
    # derived, not passed: per layer (W slice, W shape, b slice) of the flat parameters
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden layer sizes must be >= 1")
        if self.task == "multiclass_ce":
            if self.output_dim < 2:
                raise ConfigError("multiclass_ce needs output_dim >= 2 (one per class)")
        elif self.output_dim != 1:
            raise ConfigError(f"task {self.task!r} requires output_dim = 1")
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        layout = []
        offset = 0
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            w_end = offset + d_in * d_out
            layout.append((slice(offset, w_end), (d_in, d_out), slice(w_end, w_end + d_out)))
            offset = w_end + d_out
        if offset > MAX_PARAMETERS:
            raise ConfigError(f"layer sizes {dims} make {offset} parameters, above "
                              f"MAX_PARAMETERS = {MAX_PARAMETERS}: lower model.hidden_dims")
        object.__setattr__(self, "layout", tuple(layout))


@dataclass(frozen=True)
class Batch:
    """Rows of features [b, d] and targets [b], checked once, when made:
    2-d, aligned, non-empty and finite.  The rows are held as the design
    matrix [b, d + 1] whose last column is 1.0, so the input layer's bias
    rides in its product; ``features`` is the view of its first d columns.
    A ``data.Dataset`` is one."""

    features: np.ndarray
    targets: np.ndarray
    # derived, not passed: [features, 1], of which ``features`` is a view
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        t = np.asarray(self.targets, dtype=np.float64)
        if f.ndim != 2:
            raise DataError("features must be a 2-d array [batch, input_dim]")
        if t.ndim != 1 or t.shape[0] != f.shape[0]:
            raise DataError("targets must be 1-d and aligned with features")
        if f.shape[0] == 0:
            raise DataError("empty batch")
        if not np.isfinite(f).all():
            raise DataError("non-finite feature values")
        if not np.isfinite(t).all():
            raise DataError("non-finite target values")
        design = _design(f)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "features", design[:, :-1])
        object.__setattr__(self, "targets", t)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, positions: np.ndarray | slice, out: "Batch | None" = None) -> "Batch":
        """Rows at `positions`, not re-validated: rows of a validated batch
        are valid.  A slice returns views; an integer index array, a `take`
        copy (fancy indexing's bytes, faster).  With ``out``, a batch of
        len(positions) rows, an index array's rows are gathered into its
        arrays and ``out`` is returned; its positions must be in range, as
        they are not checked (``take``'s clip mode, which needs no buffer)."""
        if out is not None:
            self.design.take(positions, axis=0, out=out.design, mode="clip")
            self.targets.take(positions, out=out.targets, mode="clip")
            return out
        view = isinstance(positions, slice)
        sub = object.__new__(Batch)
        for name in ("design", "targets"):
            a = getattr(self, name)
            object.__setattr__(sub, name, a[positions] if view else a.take(positions, axis=0))
        object.__setattr__(sub, "features", sub.design[:, :-1])
        return sub


def _design(f: np.ndarray) -> np.ndarray:
    """[f, 1] for float64 features ``f``: the array ``f`` is already the
    leading columns of, if its last column is 1.0 (``load_csv`` and
    ``split`` make their rows so), else a new C-contiguous one."""
    d = f.base
    if (isinstance(d, np.ndarray) and d.ndim == 2
            and d[:, :-1].__array_interface__ == f.__array_interface__
            and (d[:, -1] == 1.0).all()):
        return d
    d = np.empty((f.shape[0], f.shape[1] + 1))
    d[:, :-1] = f
    d[:, -1] = 1.0
    return d


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------


def parameter_count(spec: ModelSpec) -> int:
    return spec.layout[-1][2].stop


def unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of the flat vector as per-layer (W, b) pairs."""
    params = np.asarray(params)
    if params.shape != (parameter_count(spec),):
        raise DataError(
            f"parameter vector has shape {params.shape}, expected ({parameter_count(spec)},)"
        )
    return [(params[ws].reshape(shape), params[bs]) for ws, shape, bs in spec.layout]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    params = np.empty(parameter_count(spec), dtype=np.float64)
    for ws, (d_in, d_out), bs in spec.layout:
        limit = 1.0 / math.sqrt(d_in)
        params[ws] = rng.uniform(-limit, limit, d_in * d_out)
        params[bs] = rng.uniform(-limit, limit, d_out)
    return params


# ---------------------------------------------------------------------------
# Forward / losses
# ---------------------------------------------------------------------------


def _expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic split on the sign of x, e^min(x, 0) / (1 + e^-|x|):
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so ``exp`` never
    overflows (±inf included) and the negative tail keeps its relative
    precision.  ``out`` may be ``x``."""
    return np.divide(np.exp(np.minimum(x, 0.0)), 1.0 + np.exp(-np.abs(x)), out=out)


class Workspace:
    """One parameter vector, its (W, b) views, the (d + 1) x h view ``Wb0``
    of its contiguous (W0; b0) block and the transposes ``weights_t``,
    which all see every in-place update of it, the spec's activation rules
    and the buffers of each backward shape seen so far."""

    def __init__(self, spec: ModelSpec, params: np.ndarray):
        self.spec = spec
        self.layers = unpack(spec, params)
        self.Wb0 = np.asarray(params)[_block0(spec)].reshape(spec.input_dim + 1, -1)
        self.weights_t = [w.T for w, _ in self.layers]
        self.activate, self.activate_grad = _ACTIVATION_RULES[spec.activation]
        self._buffers = {}  # (b, lead, k) -> what ``buffers`` returns

    def buffers(self, b: int, lead: int, k: int):
        """(flat gradient [lead + k, P], bias rows [lead + k, b] whose mean row
        is ones, and per layer (mean-row W view, weighted-row W view, bias
        view, weighted delta [b, d_out])) for ``weighted_gradient``: ``lead``
        is 1 with a mean row first, ``k`` 1 with a weighted row last.  Layer
        0's W views are of its (W0; b0) block, the shape of ``Wb0``."""
        bufs = self._buffers.get((b, lead, k))
        if bufs is None:
            grad = np.empty((lead + k, parameter_count(self.spec)))
            w_slices = [_block0(self.spec), *(ws for ws, _, _ in self.spec.layout[1:])]
            views = [(grad[0, w].reshape(-1, shape[1]), grad[-1, w].reshape(-1, shape[1]),
                      grad[:, bs], np.empty((b, shape[1])))
                     for w, (_, shape, bs) in zip(w_slices, self.spec.layout)]
            bufs = self._buffers[(b, lead, k)] = grad, np.ones((lead + k, b)), views
        return bufs


def _block0(spec: ModelSpec) -> slice:
    """The flat slice of layer 0's W0 then b0: (d + 1) x h, b0 its last row."""
    return slice(spec.layout[0][0].start, spec.layout[0][2].stop)


def _workspace(spec: ModelSpec, params: np.ndarray | Workspace) -> Workspace:
    """``params`` if it is a workspace, else a fresh one over the vector."""
    return params if isinstance(params, Workspace) else Workspace(spec, params)


class ForwardCache(NamedTuple):
    """One forward pass kept for backprop."""
    ws: Workspace         # the workspace the pass ran through
    inputs: list          # input to layer l: the design matrix, then each activated output
    outputs: np.ndarray   # [b, output_dim]


def forward_cache(spec: ModelSpec, params: np.ndarray | Workspace,
                  batch: Batch) -> ForwardCache:
    """Forward pass keeping each layer's input for backprop.  Layer 0 is
    the one product of the batch's design matrix and (W0; b0), so its bias
    is added inside the product; each later layer adds its bias to its
    fresh ``np.dot`` output.  Each hidden activation is applied in place."""
    if batch.features.shape[1] != spec.input_dim:
        raise DataError(
            f"batch has {batch.features.shape[1]} features, spec expects {spec.input_dim}"
        )
    ws = _workspace(spec, params)
    inputs = [batch.design]
    h = batch.design @ ws.Wb0
    for w, b in ws.layers[1:]:
        ws.activate(h)
        inputs.append(h)
        h = np.dot(h, w)
        h += b
    return ForwardCache(ws, inputs, h)


# rows per ``forward_cache`` call when ``forward`` evaluates a whole split
FORWARD_BLOCK_ROWS = 2048


def forward(spec: ModelSpec, params: np.ndarray | Workspace, batch: Batch) -> np.ndarray:
    """Network outputs [b, output_dim]; classification tasks return logits.

    Runs ``forward_cache`` over consecutive FORWARD_BLOCK_ROWS-row views
    of the batch, so peak memory follows the block, not the split.  A
    batch of at most one block is the one-pass forward, whose fresh
    outputs are returned as they are; on longer ones, BLAS may pick
    another kernel for a block's shape, so outputs can differ from one
    pass in the last ulps.  The block size is fixed, so outputs are
    deterministic.
    """
    ws = _workspace(spec, params)
    n = len(batch)
    if n <= FORWARD_BLOCK_ROWS:
        return forward_cache(spec, ws, batch).outputs
    outputs = np.empty((n, spec.output_dim))
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        block = slice(start, start + FORWARD_BLOCK_ROWS)
        outputs[block] = forward_cache(spec, ws, batch.subset(block)).outputs
    return outputs


def _check_targets(task: str, targets: np.ndarray, classes: int | None = None) -> None:
    """Refuse labels the task cannot take: 0 or 1 for the sigmoid tasks, and
    class indices in [0, classes) for multiclass_ce (any integer >= 0 without
    ``classes``).  The one label check: ``data`` runs it on the labels it
    encodes, each split where it enters training or evaluation."""
    if task == "multiclass_ce":
        if np.any(targets != np.floor(targets)):
            raise DataError("multiclass labels must be integer class indices")
        top = math.inf if classes is None else classes
        if targets.min() < 0 or targets.max() >= top:
            raise DataError(f"multiclass labels: class index out of range [0, {top})")
    elif task in ("binary_bce", "logistic_regression_mse"):
        if not np.all((targets == 0.0) | (targets == 1.0)):
            raise DataError(f"{task} labels must be 0 or 1")


def per_example_losses(spec: ModelSpec, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example task losses, always finite and >= 0.

    regression_mse          (y_hat - y)^2
    binary_bce              log(1 + e^z) - y*z        (z = logit)
    multiclass_ce           logsumexp(z) - z[y]
    logistic_regression_mse (sigmoid(z) - y)^2

    Each is >= 0 and never -0.0 as rounded, so none is clamped: squares are,
    logaddexp(0, z) is max(0, z) plus a log1p term >= 0, and lse >= z[y].
    ``targets`` are valid for the task (``_check_targets``), not re-checked.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.ndim != 2 or predictions.shape[1] != spec.output_dim:
        raise DataError("predictions must be [batch, output_dim]")
    if predictions.shape[0] != targets.shape[0]:
        raise DataError("predictions and targets disagree on batch size")

    if spec.task == "regression_mse":
        losses = (predictions[:, 0] - targets) ** 2
    elif spec.task == "binary_bce":
        z = predictions[:, 0]
        losses = np.logaddexp(0.0, z) - targets * z
    elif spec.task == "logistic_regression_mse":
        losses = (_expit(predictions[:, 0]) - targets) ** 2
    else:  # multiclass_ce
        z = predictions
        m = z.max(axis=1)
        lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
        losses = lse - z[np.arange(len(z)), targets.astype(np.int64)]
    if not np.isfinite(losses).all():
        raise NumericError("non-finite per-example loss")
    return losses


def _loss_output_grad(spec: ModelSpec, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d loss_i / d output_i, shape [b, output_dim], for float64 targets."""
    if spec.task == "regression_mse":
        return 2.0 * (outputs - targets[:, None])
    if spec.task == "binary_bce":
        return _expit(outputs) - targets[:, None]
    if spec.task == "logistic_regression_mse":
        p = _expit(outputs)
        return 2.0 * (p - targets[:, None]) * p * (1.0 - p)
    # multiclass_ce: softmax minus one-hot
    z = outputs - outputs.max(axis=1, keepdims=True)
    e = np.exp(z)
    grad = e / e.sum(axis=1, keepdims=True)
    grad[np.arange(len(grad)), targets.astype(np.int64)] -= 1.0
    return grad


def weighted_gradient(spec: ModelSpec, params: np.ndarray | Workspace | ForwardCache,
                      batch: Batch, weights: np.ndarray | None,
                      mean: bool = False) -> np.ndarray:
    """Gradient of (1/b) * sum_i weights_i * loss_i, weights held constant.

    ``weights`` is None for the plain mean-loss gradient (weights 1) as
    [P], one vector [b] for its gradient as [P], or one vector [b] with
    ``mean=True`` for both as [2, P], the mean-loss gradient first.
    Backprop is linear in each example's output delta, so one unweighted
    delta [b, d] per layer serves both rows; the weights enter only the
    layer's products a^T (w * delta) and w . delta, and the mean row's
    weight product is a^T delta, never multiplied by ones.  A row whose
    weight is zero adds nothing, so the one-vector form runs the backward
    over the other rows only, gathered, in the leading rows of the batch's
    buffers.  Each of their deltas is the dense one (still scaled by 1/b);
    only the order of the sums over rows differs, and with no zero weight
    nothing is gathered.  Every weight zero gives exact zeros.
    ``params`` is the vector, a workspace over it, or a ``ForwardCache``
    of ``batch``, which stands for the parameters its pass ran at and saves
    the forward pass; the result is written into the workspace's buffers.
    ``weights`` is a float array, not checked: callers build it from
    losses ``per_example_losses`` found finite, and a weight that
    overflows shows at the next loss check.
    """
    cache = params if isinstance(params, ForwardCache) else forward_cache(spec, params, batch)

    b = len(batch)
    lead = int(mean or weights is None)  # 1 when row 0 is the mean gradient
    k = int(weights is not None)  # 1 when the last row is the weighted one
    grad, bias_rows, views = cache.ws.buffers(b, lead, k)
    inputs, outputs, targets = cache.inputs, cache.outputs, batch.targets
    if k and not lead:  # weights only: a zero weight's row adds nothing, so it is left out
        active = np.flatnonzero(weights)
        n = len(active)
        if n < b:  # the active rows, served by the leading n rows of the b-row buffers
            inputs = [a.take(active, axis=0) for a in inputs]
            outputs, targets = outputs.take(active, axis=0), targets.take(active)
            weights, bias_rows = weights.take(active), bias_rows[:, :n]
            views = [(mean_w, row_w, bias, weighted[:n]) for mean_w, row_w, bias, weighted in views]
    if k:
        bias_rows[-1] = weights
        per_example = weights[:, None]
    delta = _loss_output_grad(spec, outputs, targets)
    delta *= 1.0 / b
    for l in range(len(views) - 1, -1, -1):
        mean_w, row_w, bias, weighted = views[l]
        a_t = inputs[l].T
        if lead:  # np.dot, as its outs mean_w and row_w are C-contiguous views
            np.dot(a_t, delta, out=mean_w)
        if k:
            np.dot(a_t, np.multiply(per_example, delta, out=weighted), out=row_w)
        # rows @ delta, the mean's ones row included; np.dot refuses this strided [rows, d]
        # out.  It overwrites the b0 rows that layer 0's design-matrix products wrote.
        np.matmul(bias_rows, delta, out=bias)
        if l > 0:
            delta = np.dot(delta, cache.ws.weights_t[l])
            delta *= cache.ws.activate_grad(inputs[l])
    return grad if len(grad) > 1 else grad[0]
