"""Tests for the dense-network core: losses, backprop, fd oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from helpers import directional_derivative_fd, reference_forward, reference_weighted_gradient
from vfair.baselines import DroConfig, dro_direction, dro_eta
from vfair.errors import ConfigError, DataError
from vfair.nnet import (
    ACTIVATIONS,
    FORWARD_BLOCK_ROWS,
    MAX_PARAMETERS,
    TASKS,
    Batch,
    ModelSpec,
    Workspace,
    _check_targets,
    _expit,
    forward,
    forward_cache,
    init_params,
    parameter_count,
    per_example_losses,
    unpack,
    weighted_gradient,
)
from vfair.update import OBJECTIVES, UpdateState, grad_mu, vfair_direction


def linear_spec(task="regression_mse", input_dim=1, output_dim=1):
    return ModelSpec(input_dim=input_dim, hidden_dims=(), output_dim=output_dim, task=task)


def make_batch(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and x.shape[1] > 1 and np.ndim(y) == 1 and len(y) == x.shape[1]:
        x = x.T
    y = np.asarray(y, dtype=float)
    return Batch(features=x, targets=y)


def random_spec(rng, task=None):
    task = task or rng.choice(["regression_mse", "binary_bce", "multiclass_ce", "logistic_regression_mse"])
    depth = int(rng.integers(0, 3))
    hidden = tuple(int(rng.integers(2, 7)) for _ in range(depth))
    out = int(rng.integers(2, 5)) if task == "multiclass_ce" else 1
    act = rng.choice(["relu", "sigmoid", "identity"])
    return ModelSpec(
        input_dim=int(rng.integers(1, 6)),
        hidden_dims=hidden,
        output_dim=out,
        task=str(task),
        activation=str(act),
    )


def random_batch(rng, spec, b=None):
    b = b or int(rng.integers(2, 9))
    x = rng.normal(size=(b, spec.input_dim))
    if spec.task == "regression_mse":
        y = rng.normal(size=b)
    elif spec.task == "multiclass_ce":
        y = rng.integers(0, spec.output_dim, size=b)
    else:
        y = rng.integers(0, 2, size=b)
    return Batch(features=x, targets=np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Layout / init
# ---------------------------------------------------------------------------


def test_parameter_count_mlp():
    spec = ModelSpec(input_dim=3, hidden_dims=(4, 2), output_dim=1, task="regression_mse")
    # (3*4 + 4) + (4*2 + 2) + (2*1 + 1) = 16 + 10 + 3
    assert parameter_count(spec) == 29


def test_unpack_views_share_memory():
    spec = linear_spec(input_dim=2)
    params = np.arange(3, dtype=float)
    (w, b), = unpack(spec, params)
    w[0, 0] = 42.0
    assert params[0] == 42.0
    assert b.shape == (1,)


def test_init_params_seeded_and_bounded():
    spec = ModelSpec(input_dim=9, hidden_dims=(5,), output_dim=1, task="regression_mse")
    p1 = init_params(spec, seed=7)
    p2 = init_params(spec, seed=7)
    p3 = init_params(spec, seed=8)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    (w1, b1), (w2, b2) = unpack(spec, p1)
    assert np.all(np.abs(w1) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(b1) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(w2) <= 1.0 / math.sqrt(5))


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="huber")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=3, task="regression_mse")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="multiclass_ce")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(0,), output_dim=1, task="regression_mse")
    with pytest.raises(ConfigError, match="input_dim must be >= 1"):
        ModelSpec(input_dim=0, hidden_dims=(), output_dim=1, task="regression_mse")
    # the parameter count comes from the layout alone: nothing is allocated
    spec = ModelSpec(input_dim=MAX_PARAMETERS - 1, hidden_dims=(), output_dim=1,
                     task="regression_mse")
    assert parameter_count(spec) == MAX_PARAMETERS
    with pytest.raises(ConfigError, match="model.hidden_dims"):
        ModelSpec(input_dim=MAX_PARAMETERS, hidden_dims=(), output_dim=1, task="regression_mse")
    with pytest.raises(ConfigError, match="model.hidden_dims"):
        ModelSpec(input_dim=4, hidden_dims=(10**9,), output_dim=1, task="regression_mse")


def test_batch_validation():
    with pytest.raises(DataError):
        Batch(features=np.zeros((2, 1)), targets=np.zeros(3))
    with pytest.raises(DataError):
        Batch(features=np.zeros((0, 1)), targets=np.zeros(0))
    with pytest.raises(DataError):
        Batch(features=np.array([[np.inf]]), targets=np.zeros(1))
    with pytest.raises(DataError, match="2-d"):
        Batch(features=np.zeros(3), targets=np.zeros(3))
    # where a batch meets a model: its width, and the outputs against the targets
    spec = linear_spec(input_dim=2)
    with pytest.raises(DataError, match="spec expects 2"):
        forward_cache(spec, np.zeros(3), Batch(features=np.zeros((4, 3)), targets=np.zeros(4)))
    with pytest.raises(DataError, match="output_dim"):
        per_example_losses(spec, np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(DataError, match="output_dim"):
        per_example_losses(spec, np.zeros(4), np.zeros(4))
    with pytest.raises(DataError, match="batch size"):
        per_example_losses(spec, np.zeros((4, 1)), np.zeros(3))


# ---------------------------------------------------------------------------
# Forward / losses: hand-computed anchors
# ---------------------------------------------------------------------------


def test_forward_zero_params_predicts_zero():
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="regression_mse")
    batch = make_batch([[1.0, -2.0], [0.5, 4.0]], [0.0, 0.0])
    out = forward(spec, np.zeros(parameter_count(spec)), batch)
    assert np.array_equal(out, np.zeros((2, 1)))


B = FORWARD_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("task", TASKS)
def test_blocked_forward_matches_one_pass(task, activation, n):
    spec = ModelSpec(input_dim=7, hidden_dims=(16, 8), output_dim=3 if task == "multiclass_ce" else 1,
                     task=task, activation=activation)
    params = init_params(spec, seed=5)
    batch = Batch(features=np.random.default_rng(n).normal(size=(n, 7)) * 2.0, targets=np.zeros(n))
    blocked = forward(spec, params, batch)
    one_pass = forward_cache(spec, params, batch).outputs
    assert np.array_equal(blocked[:B], one_pass[:B])
    np.testing.assert_allclose(blocked, one_pass, rtol=1e-12, atol=1e-12 * np.abs(one_pass).max())
    assert np.array_equal(forward(spec, params, batch), blocked)


def test_regression_loss_and_gradient_single_example():
    # linear model w=1, b=0 on (x=1, y=0): prediction 1, loss 1,
    # dl/dw = 2*(pred-y)*x = 2, dl/db = 2
    spec = linear_spec()
    params = np.array([1.0, 0.0])
    batch = make_batch([[1.0]], [0.0])
    losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
    assert losses.shape == (1,)
    assert losses[0] == pytest.approx(1.0)
    grad = weighted_gradient(spec, params, batch, np.ones(1))
    assert grad == pytest.approx([2.0, 2.0])


def test_bce_uniform_logit_is_log_two():
    spec = linear_spec(task="binary_bce")
    preds = np.zeros((2, 1))
    losses = per_example_losses(spec, preds, np.array([1.0, 0.0]))
    assert losses == pytest.approx([math.log(2.0), math.log(2.0)])


def test_bce_extreme_logits_stay_finite():
    spec = linear_spec(task="binary_bce")
    preds = np.array([[500.0], [-500.0], [500.0], [-500.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    losses = per_example_losses(spec, preds, y)
    assert np.all(np.isfinite(losses))
    assert losses[0] == pytest.approx(0.0, abs=1e-12)
    assert losses[1] == pytest.approx(0.0, abs=1e-12)
    assert losses[2] == pytest.approx(500.0)
    assert losses[3] == pytest.approx(500.0)


def test_logistic_is_within_an_ulp_or_so_of_scipy_expit_and_never_warns():
    # relative error <= 5e-16 where the logistic is a normal float or
    # nearly (|x| <= 709), absolute error <= 2.3e-16 at every finite x and
    # at +-inf, no RuntimeWarning, and out=x writes the same bits in place
    rng = np.random.default_rng(0)
    body = np.concatenate([np.linspace(0.0, 709.0, 1_000_001),
                           rng.uniform(0.0, 709.0, 500_000),
                           10.0 ** rng.uniform(-320.0, math.log10(709.0), 500_000)])
    tails = np.concatenate([rng.uniform(709.0, 800.0, 100_000),
                            10.0 ** rng.uniform(2.8, 308.25, 100_000),
                            [np.finfo(float).max, np.finfo(float).tiny, 5e-324, 0.0, np.inf]])
    body, tails = np.concatenate([body, -body]), np.concatenate([tails, -tails])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, rel in ((body, 5e-16), (tails, None)):
            got, want = _expit(x), expit(x)
            assert np.abs(got - want).max() <= 2.3e-16
            if rel is not None:
                assert (np.abs(got - want) / want).max() <= rel
            in_place = x.copy()
            assert _expit(in_place, out=in_place) is in_place
            assert np.array_equal(in_place, got)


def test_logistic_mse_uniform_prediction_quarter_loss():
    # logit 0 -> p = 0.5 -> squared error 0.25 against either binary target
    spec = linear_spec(task="logistic_regression_mse")
    losses = per_example_losses(spec, np.zeros((2, 1)), np.array([0.0, 1.0]))
    assert losses == pytest.approx([0.25, 0.25])


def test_multiclass_uniform_logits_log_k():
    spec = linear_spec(task="multiclass_ce", output_dim=4)
    losses = per_example_losses(spec, np.zeros((3, 4)), np.array([0.0, 2.0, 3.0]))
    assert losses == pytest.approx([math.log(4.0)] * 3)


# targets are checked once per split, where it enters training or evaluation
# (see test_each_split_checks_its_targets_where_it_enters), not per loss call


def test_multiclass_rejects_out_of_range_class():
    with pytest.raises(DataError, match="out of range"):
        _check_targets("multiclass_ce", np.array([3.0]), 3)
    with pytest.raises(DataError, match="integer"):
        _check_targets("multiclass_ce", np.array([1.5]), 3)
    _check_targets("multiclass_ce", np.array([0.0, 2.0]), 3)
    # without a class count, as data loading checks, any index >= 0 passes
    _check_targets("multiclass_ce", np.array([0.0, 1e20]))
    with pytest.raises(DataError, match="out of range"):
        _check_targets("multiclass_ce", np.array([-1.0, 2.0]))
    with pytest.raises(DataError, match="integer"):
        _check_targets("multiclass_ce", np.array([0.0, 2.5]))


def test_binary_targets_validated():
    for task in ("binary_bce", "logistic_regression_mse"):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            _check_targets(task, np.array([0.5]))
        _check_targets(task, np.array([0.0, 1.0]))
    _check_targets("regression_mse", np.array([0.5, -3.0]))


def test_losses_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        assert np.all(losses >= 0.0)
        assert np.all(np.isfinite(losses))


# ---------------------------------------------------------------------------
# weighted_gradient
# ---------------------------------------------------------------------------


def test_weighted_gradient_matches_mean_gradient_when_uniform():
    rng = np.random.default_rng(1)
    spec = ModelSpec(input_dim=3, hidden_dims=(4,), output_dim=1, task="regression_mse")
    batch = random_batch(rng, spec, b=6)
    params = init_params(spec, seed=3)
    g_uniform = weighted_gradient(spec, params, batch, np.ones(6))
    # mean objective via fd in a few random directions
    for _ in range(5):
        d = rng.normal(size=params.shape)
        fd = directional_derivative_fd(spec, params, batch, "mean", d)
        assert fd == pytest.approx(float(g_uniform @ d), rel=1e-5, abs=1e-8)


def test_weighted_gradient_linear_in_weights():
    rng = np.random.default_rng(2)
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="binary_bce")
    batch = random_batch(rng, spec, b=5)
    params = init_params(spec, seed=5)
    w1 = rng.normal(size=5)
    w2 = rng.normal(size=5)
    a, b = 0.7, -1.3
    lhs = weighted_gradient(spec, params, batch, a * w1 + b * w2)
    rhs = a * weighted_gradient(spec, params, batch, w1) + b * weighted_gradient(spec, params, batch, w2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_weighted_gradient_zero_weights_zero():
    spec = linear_spec()
    batch = make_batch([[1.0], [2.0]], [0.0, 1.0])
    grad = weighted_gradient(spec, np.array([0.3, -0.2]), batch, np.zeros(2))
    assert np.array_equal(grad, np.zeros(2))


def test_weighted_gradient_permutation_consistent():
    rng = np.random.default_rng(3)
    spec = ModelSpec(input_dim=3, hidden_dims=(4, 3), output_dim=3, task="multiclass_ce", activation="sigmoid")
    batch = random_batch(rng, spec, b=7)
    params = init_params(spec, seed=11)
    weights = rng.uniform(0.5, 2.0, size=7)
    perm = rng.permutation(7)
    shuffled = Batch(features=batch.features[perm], targets=batch.targets[perm])
    g1 = weighted_gradient(spec, params, batch, weights)
    g2 = weighted_gradient(spec, params, shuffled, weights[perm])
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_weighted_gradient_fd_oracle_random_models():
    # the central gradient-correctness property, across tasks/activations/depths
    rng = np.random.default_rng(4)
    for _ in range(60):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        weights = rng.uniform(-1.0, 2.0, size=len(batch))
        grad = weighted_gradient(spec, params, batch, weights)
        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        fd = directional_derivative_fd(spec, params, batch, "weighted", d, weights=weights)
        if spec.activation == "relu":
            tol = 1e-4  # kinks can sit near the probe
        else:
            tol = 1e-6
        assert abs(fd - float(grad @ d)) <= tol * max(1.0, abs(fd)), (spec, fd, float(grad @ d))


def test_weighted_gradient_stacked_rows_match_single_calls_and_fd():
    # the mean=True [2, P] call shares one forward cache and one reverse
    # pass; its mean row must be the weights=None call, its weighted row
    # the 1-d call, and each must match finite differences
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        w = rng.uniform(-1.0, 2.0, size=len(batch))
        stacked = weighted_gradient(spec, forward_cache(spec, params, batch), batch, w,
                                    mean=True)
        assert stacked.shape == (2, len(params))
        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        tol = 1e-4 if spec.activation == "relu" else 1e-6
        for weights, grad in zip((None, w), stacked):
            single = weighted_gradient(spec, params, batch, weights)
            assert np.linalg.norm(grad - single) <= 1e-12 * np.linalg.norm(single)
            objective = "mean" if weights is None else "weighted"
            fd = directional_derivative_fd(spec, params, batch, objective, d, weights=weights)
            assert abs(fd - float(grad @ d)) <= tol * max(1.0, abs(fd))


def test_weighted_gradient_weight_shapes():
    # the three forms training passes: a mean row or a weighted row alone
    # is flat; with mean=True the two make a [2, P] stack, mean first
    spec = linear_spec()
    batch = make_batch([[1.0], [2.0]], [0.0, 1.0])
    params = np.array([0.3, -0.2])
    assert weighted_gradient(spec, params, batch, None).shape == (2,)
    assert weighted_gradient(spec, params, batch, None, mean=True).shape == (2,)
    assert weighted_gradient(spec, params, batch, np.ones(2)).shape == (2,)
    assert weighted_gradient(spec, params, batch, np.ones(2), mean=True).shape == (2, 2)


@pytest.mark.parametrize("hidden", [(6, 3), ()])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("task", TASKS)
def test_forward_and_backward_bit_equal_to_reference(task, activation, hidden):
    # in-place activations, derivatives from layer outputs and a mean row
    # never multiplied by ones change no bit against the reference pass
    rng = np.random.default_rng(11)
    spec = ModelSpec(input_dim=5, hidden_dims=hidden, output_dim=3 if task == "multiclass_ce" else 1,
                     task=task, activation=activation)
    params = init_params(spec, seed=3)
    n = B + 40
    if task == "regression_mse":
        targets = rng.normal(size=n)
    else:
        targets = rng.integers(0, spec.output_dim if task == "multiclass_ce" else 2, size=n)
    split = Batch(features=rng.normal(size=(n, 5)) * 2.0, targets=targets.astype(float))
    frozen = split.features.copy()
    # the whole split runs in blocks, so its reference is one pass per block
    blocks = [reference_forward(spec, params, split.subset(slice(s, s + B)))[2] for s in (0, B)]
    assert np.array_equal(forward(spec, params, split), np.concatenate(blocks))
    # a full minibatch, a short last one and a one-row last one (a split one
    # row past a multiple of the batch size, where BLAS may route a product
    # another way), as slices of one gathered epoch
    for batch in (split.subset(slice(0, 32)), split.subset(slice(n - 7, n)),
                  split.subset(slice(n - 1, n))):
        b = len(batch)
        cache = forward_cache(spec, params, batch)
        assert np.array_equal(cache.outputs, reference_forward(spec, params, batch)[2])
        w = rng.uniform(-1.0, 2.0, size=b)
        ones = np.ones(b)
        cases = [
            (weighted_gradient(spec, cache, batch, w), w),
            (weighted_gradient(spec, cache, batch, None), ones),
            (weighted_gradient(spec, cache, batch, w, mean=True), np.stack([ones, w])),
            (weighted_gradient(spec, params, batch, w), w),
        ]
        for got, weights in cases:
            assert np.array_equal(got, reference_weighted_gradient(spec, params, batch, weights))
    assert np.array_equal(split.features, frozen)


# the benchmark's shapes, [4 -> hidden -> 1]: (hidden widths, minibatch rows,
# whole-split rows).  The README config trains 1050 rows in 128-row batches
# (the last has 26) and tests 450; large_batch trains 70,000 rows in 512-row
# batches (the last has 368) and tests 30,000, each split evaluated in
# 2048-row blocks, the last of which have 368 and 1328 rows
BENCHMARK_SHAPES = [
    ((16, 8), (128, 26), (1050, 450)),
    ((64, 32), (512, 368), (FORWARD_BLOCK_ROWS + 368, FORWARD_BLOCK_ROWS + 1328)),
]


@pytest.mark.parametrize("hidden, batch_rows, split_rows", BENCHMARK_SHAPES)
def test_folded_input_layer_keeps_the_unfolded_bits_at_benchmark_shapes(hidden, batch_rows,
                                                                        split_rows):
    # layer 0 is one product of the design matrix [x, 1] and (W0; b0); at
    # the benchmark's shapes it gives the bits of the unfolded x @ W0 + b0,
    # forward and backward, so those runs keep their records.  A numpy or
    # BLAS change that routes one of these products to another kernel fails here
    rng = np.random.default_rng(33)
    spec = ModelSpec(input_dim=4, hidden_dims=hidden, output_dim=1, task="regression_mse")
    params = init_params(spec, seed=0)
    for n in split_rows:
        split = Batch(features=rng.normal(size=(n, 4)), targets=rng.normal(size=n))
        blocks = [reference_forward(spec, params, split.subset(slice(s, s + FORWARD_BLOCK_ROWS)),
                                    fold=False)[2] for s in range(0, n, FORWARD_BLOCK_ROWS)]
        assert np.array_equal(forward(spec, params, split), np.concatenate(blocks))
    for b in batch_rows:
        batch = Batch(features=rng.normal(size=(b, 4)), targets=rng.normal(size=b))
        cache = forward_cache(spec, params, batch)
        assert np.array_equal(cache.outputs, reference_forward(spec, params, batch, fold=False)[2])
        w = rng.uniform(0.0, 2.0, size=b)
        ones = np.ones(b)
        for got, weights in [(weighted_gradient(spec, cache, batch, None), ones),
                             (weighted_gradient(spec, cache, batch, w), w),
                             (weighted_gradient(spec, cache, batch, w, mean=True),
                              np.stack([ones, w]))]:
            assert np.array_equal(
                got, reference_weighted_gradient(spec, params, batch, weights, fold=False))


def test_gradients_share_a_buffer_only_through_one_workspace_and_shape():
    # a call without a workspace returns fresh arrays; through one, each
    # same-shape call writes the same buffer, and a tail batch has its own
    rng = np.random.default_rng(2)
    spec = ModelSpec(input_dim=3, hidden_dims=(4,), output_dim=1, task="regression_mse")
    params = init_params(spec, seed=0)
    n = FORWARD_BLOCK_ROWS + 5  # a whole-split forward runs two blocks
    split = Batch(features=rng.normal(size=(n, 3)), targets=rng.normal(size=n))
    batches = [split.subset(slice(s, s + 8)) for s in (0, 8, n - 4)]  # the last has 4 rows
    w = rng.uniform(0.0, 1.0, size=8)
    assert not np.shares_memory(weighted_gradient(spec, params, batches[0], w),
                                weighted_gradient(spec, params, batches[0], w))
    assert not np.shares_memory(weighted_gradient(spec, params, batches[0], None),
                                weighted_gradient(spec, params, batches[0], None))

    ws = Workspace(spec, params)
    assert all(np.shares_memory(w, params) and np.shares_memory(b, params) for w, b in ws.layers)
    got = []
    for batch in batches:
        weights = w[: len(batch)]
        cache = forward_cache(spec, ws, batch)
        got.append(weighted_gradient(spec, cache, batch, weights, mean=True))
        # the buffer holds this call's gradient, bit for bit the fresh one
        fresh = weighted_gradient(spec, params, batch, weights, mean=True)
        assert np.array_equal(got[-1], fresh) and not np.shares_memory(got[-1], fresh)
    assert np.shares_memory(got[0], got[1])
    assert not np.shares_memory(got[0], got[2])
    # another row count is another shape, with its own buffer
    mean_only = weighted_gradient(spec, forward_cache(spec, ws, batches[0]), batches[0], None)
    assert not np.shares_memory(mean_only, got[0]) and not np.shares_memory(mean_only, got[2])

    # the workspace stands for its vector: every step function gives through
    # it the bits it gives on the vector, also after an in-place update
    batch = batches[0]
    state = UpdateState(ema_mean=0.5)
    calls = [
        lambda p: forward_cache(spec, p, batch).outputs,
        lambda p: forward(spec, p, batch),
        lambda p: forward(spec, p, split),
        lambda p: grad_mu(spec, p, batch),
        *(lambda p, obj=obj: vfair_direction(state, spec, p, batch, obj) for obj in OBJECTIVES),
        lambda p: dro_direction(spec, p, batch, DroConfig()),  # C^2 >= 8 rows: a zero step
        lambda p: dro_direction(spec, p, batch, DroConfig(alpha_min=0.9)),
        lambda p: weighted_gradient(spec, p, batch, None),
        lambda p: weighted_gradient(spec, p, batch, w),
        lambda p: weighted_gradient(spec, p, batch, w, mean=True),
    ]

    def same(a, b):
        if isinstance(a, tuple):
            return len(a) == len(b) and all(map(same, a, b))
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    for _ in range(2):
        for call in calls:
            assert same(call(params), call(ws))
        params -= 0.1 * grad_mu(spec, params, batch)  # in place, so ws sees it
    assert not dro_direction(spec, ws, batch, DroConfig())[0].any()
    assert dro_direction(spec, ws, batch, DroConfig(alpha_min=0.9))[0].any()


@pytest.mark.parametrize("hidden, activation", [((16, 8), "relu"), ((16,), "sigmoid"),
                                                ((), "identity")])
@pytest.mark.parametrize("task", TASKS)
def test_weights_only_gradient_runs_the_active_rows_to_the_dense_reference(task, hidden,
                                                                          activation):
    # the weights-only form backpropagates only the rows whose weight is not
    # zero (-0.0 counts as zero).  Each kept row's delta is the dense one, so
    # only the order of the sums over rows differs from the dense reference;
    # with no zero weight nothing is gathered and the bits are the dense
    # path's; with every weight zero the gradient is exact zeros
    rng = np.random.default_rng(35)
    b = 128
    spec = ModelSpec(input_dim=4, hidden_dims=hidden, task=task, activation=activation,
                     output_dim=3 if task == "multiclass_ce" else 1)
    params = init_params(spec, seed=1)
    batch = random_batch(rng, spec, b=b)
    spread = rng.uniform(0.1, 2.0, size=b)
    few = np.zeros(b)
    picked = rng.choice(b, size=7, replace=False)  # about 5% of the rows
    few[picked] = spread[picked]
    few[np.flatnonzero(few == 0.0)[3]] = -0.0
    one = np.zeros(b)
    one[17] = spread[17]
    ws = Workspace(spec, params)
    # one workspace serves every active count, dense calls in between
    for weights in (few, spread, one, spread, few):
        ref = reference_weighted_gradient(spec, params, batch, weights)
        for p in (params, ws):
            got = weighted_gradient(spec, p, batch, weights)
            if weights is spread:
                assert np.array_equal(got, ref)
            else:
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    for zeros in (np.zeros(b), -np.zeros(b)):
        got = weighted_gradient(spec, ws, batch, zeros)
        assert np.array_equal(got, np.zeros(parameter_count(spec)))


def test_active_rows_share_the_buffers_of_their_batch_size():
    # DRO's weights are zero at and below eta*, so the rows its backward runs
    # vary from step to step; they are served by the leading rows of one
    # buffer set per (batch rows, lead, k), never one per active count
    rng = np.random.default_rng(60)
    spec = ModelSpec(input_dim=4, hidden_dims=(64, 32), output_dim=1, task="regression_mse")
    params = init_params(spec, seed=0)
    ws = Workspace(spec, params)
    cfg = DroConfig()
    active = set()
    for step in range(60):
        b = 368 if step % 10 == 9 else 512  # large_batch's full and tail batch sizes
        batch = Batch(features=rng.normal(size=(b, 4)), targets=rng.normal(size=b) ** 3)
        losses = per_example_losses(spec, forward(spec, ws, batch), batch.targets)
        active.add(int(np.count_nonzero(losses > dro_eta(losses, cfg))))
        params -= 0.01 * dro_direction(spec, ws, batch, cfg)[0]
    assert len(active) > 10 and min(active) < 100
    assert sorted(ws._buffers) == [(368, 0, 1), (512, 0, 1)]
    for (b, lead, k), (grad, bias_rows, views) in ws._buffers.items():
        assert bias_rows.shape == (lead + k, b)
        assert all(weighted.shape[0] == b for *_, weighted in views)


def test_fd_objective_validation():
    spec = linear_spec()
    batch = make_batch([[1.0]], [0.0])
    with pytest.raises(ConfigError):
        directional_derivative_fd(spec, np.zeros(2), batch, "median", np.ones(2))
    with pytest.raises(ConfigError):
        directional_derivative_fd(spec, np.zeros(2), batch, "weighted", np.ones(2))
