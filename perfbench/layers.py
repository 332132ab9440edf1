"""Microsecond-per-call timings of single layer functions at a workload's shapes.

Every function is called on the workload's own data and batch size, with
the parameters of the workload's trained ERM run, warmed up, and then
timed call by call with tracing off.
"""

from __future__ import annotations

import time

import numpy as np
from vfair import baselines, data, harness, metrics, nnet, update

# percentile levels tried for the tail, highest first
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_SAMPLES = 20  # enough for a tail at the median at worst


def time_calls(call, inputs, budget_s=0.3, min_samples=MIN_SAMPLES, max_samples=20_000, warmup=3):
    """Per-call wall times in seconds, cycling through `inputs` (argument tuples)."""
    for i in range(warmup):
        call(*inputs[i % len(inputs)])
    samples = []
    deadline = time.perf_counter() + budget_s
    i = 0
    while len(samples) < min_samples or (
        len(samples) < max_samples and time.perf_counter() < deadline
    ):
        args = inputs[i % len(inputs)]
        i += 1
        t0 = time.perf_counter()
        call(*args)
        samples.append(time.perf_counter() - t0)
    return samples


def summarize(samples, scale: float) -> dict:
    """Median and the highest percentile with >= TAIL_BEYOND samples beyond it."""
    arr = np.asarray(samples) * scale
    n = len(arr)
    level = next((q for q in TAIL_LEVELS if n * (1.0 - q / 100.0) >= TAIL_BEYOND), None)
    out = {"median": float(np.median(arr)), "n": n}
    if level is not None:
        out["tail"] = float(np.percentile(arr, level))
        out["tail_pct"] = level
    return out


def layer_timings(cfg, spec, train, test, records, seed: int, scratch) -> dict:
    """name -> summary for every timed layer function.

    `records` are the workload's run records, ERM's first; its parameters
    are the ones timed.  `scratch` is a directory for a record file.
    """
    params = records[0].params
    rng = np.random.default_rng(seed)
    order = rng.permutation(train.n)
    b = cfg.batch_size
    idx = [order[s : s + b] for s in range(0, min(train.n, 32 * b), b) if s + b <= train.n]
    batches = [data.take_batch(train, i) for i in idx]
    outputs = [nnet.forward(spec, params, bt) for bt in batches]
    losses = [nnet.per_example_losses(spec, o, bt.targets) for o, bt in zip(outputs, batches)]
    ones = np.ones(b)
    dro_cfg = baselines.DroConfig(alpha_min=cfg.dro_alpha_min)
    state = update.UpdateState(
        decay=cfg.decay, step_size=cfg.step_size, lambda2_cap=cfg.lambda2_cap,
        ema_mean=float(np.mean([l.mean() for l in losses])),
    )
    full = data.take_batch(train, np.arange(train.n))
    test_full = data.take_batch(test, np.arange(test.n))
    kind = harness.resolve_utility(cfg.utility, spec.task)
    test_out = nnet.forward(spec, params, test_full)
    test_losses = nnet.per_example_losses(spec, test_out, test_full.targets)
    preds = records[0].test_predictions
    first_attr = next(iter(test.sensitive))
    sens_part = metrics.GroupPartition.from_values(test.sensitive[first_attr], label=first_attr)
    parts = [metrics.random_partition(rng, test.n, 10) for _ in range(16)]
    per_method = {f"{r.method}_seed{r.seed}": r.test_predictions for r in records}
    record = records[0]
    record_path = scratch / "record.json"
    record.save(record_path)

    def each(fn):
        return [(x,) for x in fn]

    us, ms, s = 1e6, 1e3, 1.0
    plan = [
        ("nnet.forward_us", lambda bt: nnet.forward(spec, params, bt), each(batches), us),
        ("nnet.weighted_gradient_us",
         lambda bt: nnet.weighted_gradient(spec, params, bt, ones), each(batches), us),
        ("nnet.per_example_losses_us",
         lambda o, bt: nnet.per_example_losses(spec, o, bt.targets),
         list(zip(outputs, batches)), us),
        *[
            (f"update.vfair_direction_us.{obj}",
             lambda bt, obj=obj: update.vfair_direction(state, spec, params, bt, obj),
             each(batches), us)
            for obj in ("std_dev", "variance", "pairwise")
        ],
        ("update.grad_mu_us", lambda bt: update.grad_mu(spec, params, bt), each(batches), us),
        ("baselines.dro_direction_us",
         lambda bt: baselines.dro_direction(spec, params, bt, dro_cfg), each(batches), us),
        ("baselines.dro_eta_us", lambda l: baselines.dro_eta(l, dro_cfg), each(losses), us),
        ("data.take_batch_us", lambda i: data.take_batch(train, i), each(idx), us),
        ("data.take_batch_full_ms",
         lambda: data.take_batch(train, np.arange(train.n)), [()], ms),
        ("harness.epoch_eval_ms",
         lambda: nnet.per_example_losses(spec, nnet.forward(spec, params, full), full.targets),
         [()], ms),
        ("harness.evaluate_ms",
         lambda: harness.evaluate(cfg, spec, test, params, "erm", 0), [()], ms),
        ("harness.record_save_ms", lambda: record.save(record_path), [()], ms),
        ("harness.record_load_ms", lambda: harness.RunRecord.load(record_path), [()], ms),
        ("metrics.build_report_ms",
         lambda: metrics.build_report(preds, test_full.targets, test_losses, sens_part, kind),
         [()], ms),
        ("metrics.group_utilities_us",
         lambda p: metrics.group_utilities(preds, test_full.targets, p, kind), each(parts), us),
        ("metrics.random_partition_us",
         lambda: metrics.random_partition(rng, test.n, 10), [()], us),
    ]
    out = {name: summarize(time_calls(fn, inputs), scale) for name, fn, inputs, scale in plan}
    # One call takes 0.1-2 s, so a handful of samples and no tail.  The
    # traced run has already exercised it, so no warm-up either.
    rank = time_calls(
        lambda: metrics.random_partition_rank(
            per_method, test_full.targets, k=10, trials=100, seed=seed, kind=kind
        ),
        [()], budget_s=1.0, min_samples=1, max_samples=5, warmup=0,
    )
    out["metrics.random_partition_rank_s"] = summarize(rank, s)
    return out
