"""One workload in one fresh process: `vfair train` then `vfair rank`.

    python3 perfbench/session.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE

DIR holds the inputs that `workloads.prepare` wrote.

The working directory is the checkout root and `src` is on PYTHONPATH.
With --trace 0 the train/rank pair repeats for about S seconds (at least
twice); every train and rank call is kept with its wall time and its
time adjusted to the host speed (`hostspeed.py`).  With --trace 1 it trains
once untraced, runs the pair once traced through `tracer.Tracer`, and then
the layer microbenchmarks of `layers.py`.  Every run's outputs are checked; the
result (including every failure) is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import vfair
from vfair import cli, harness, nnet

sys.dont_write_bytecode = True  # keep generated files out of perfbench/
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# per-step counts are reported for the methods every workload trains;
# vfair_var runs the same function as vfair_std with other weights
STEP_METHODS = ("erm", "vfair_std", "vfair_pairwise", "dro")
DIRECTIONS = ("update.grad_mu", "update.vfair_direction", "baselines.dro_direction")
# rank takes 0.2-2 s; each train is followed by rank calls adding up to this
RANK_MIN_S = 3.0


class Failures:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def attempt(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.reasons.append("; ".join(problems))
        return not problems


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(argv: list[str]) -> tuple[float, list[str]]:
    """Wall time of `vfair.cli.main(argv)` and the problems it showed."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # the CLI is the boundary under test: any escape is a failure
        return time.perf_counter() - t0, [f"{argv[0]} raised:\n{traceback.format_exc()}"]
    elapsed = time.perf_counter() - t0
    return elapsed, ([] if rc == 0 else [f"{argv[0]} exited {rc}"])


def check_train(out: Path, prep: workloads.Prepared) -> tuple[dict, list[str]]:
    """Check the files of one `vfair train` run.

    Returns ({file name: sha256}, problems).  Every record must exist,
    parse as strict JSON, and describe the run its name says; every
    method other than erm writes a step trace; aggregate.csv has one row
    per (partition, method).
    """
    problems, digests = [], {}
    n_partitions = 2  # overall and the synthetic data's one sensitive attribute
    for method in prep.methods:
        for seed in prep.seeds:
            stem = f"{method}_seed{seed}"
            path = out / "runs" / f"{stem}.json"
            if not path.is_file():
                problems.append(f"missing {path}")
                continue
            raw = path.read_bytes()
            digests[path.name] = hashlib.sha256(raw).hexdigest()
            try:
                rec = _strict_json(raw.decode("utf-8"))
            except ValueError as exc:
                problems.append(f"{path.name}: {exc}")
                continue
            if rec.get("method") != method or rec.get("seed") != seed:
                problems.append(f"{path.name}: names run {rec.get('method')}/{rec.get('seed')}")
            if len(rec.get("test_targets", [])) != prep.n_test:
                problems.append(f"{path.name}: {len(rec.get('test_targets', []))} test rows, expected {prep.n_test}")
            if len(rec.get("per_epoch_loss", [])) != prep.epochs:
                problems.append(f"{path.name}: per_epoch_loss has the wrong length")
            if len(rec.get("metrics", {})) != n_partitions:
                problems.append(f"{path.name}: {len(rec.get('metrics', {}))} metric partitions")
            if method != "erm" and not (out / "traces" / f"{stem}.csv").is_file():
                problems.append(f"missing trace {stem}.csv")
    agg = out / "aggregate.csv"
    if not agg.is_file():
        problems.append("missing aggregate.csv")
    else:
        rows = agg.read_text(encoding="utf-8").strip().splitlines()
        if len(rows) != 1 + n_partitions * len(prep.methods):
            problems.append(f"aggregate.csv has {len(rows) - 1} rows")
    return digests, problems


def check_rank(path: Path, n_runs: int) -> list[str]:
    """rank.csv ranks every run on every metric; ranks on a metric sum to n(n+1)/2."""
    if not path.is_file():
        return [f"missing {path.name}"]
    rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    if len(rows) != n_runs:
        return [f"{path.name} ranks {len(rows)} runs, expected {n_runs}"]
    ranks = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    expected = n_runs * (n_runs + 1) / 2
    if ranks.min() < 1 or ranks.max() > n_runs or not np.allclose(ranks.sum(axis=0), expected, atol=1e-3):
        return [f"{path.name} holds ranks that are not a ranking of {n_runs} runs"]
    return []


def effect(out: Path, prep: workloads.Prepared) -> tuple[dict, list[str]]:
    """var_ratio and harm_ratio of vfair_std against erm, averaged over seeds,
    checked against the workload's reference limits."""
    def overall(method, seed):
        path = out / "runs" / f"{method}_seed{seed}.json"
        return json.loads(path.read_text(encoding="utf-8"))["metrics"]["overall"]

    var_r, harm_r = [], []
    for seed in prep.seeds:
        erm, vf = overall("erm", seed), overall("vfair_std", seed)
        var_r.append(vf["var"] / erm["var"])
        harm_r.append(vf["utility"] / erm["utility"])  # test MSE: regression workloads only
    values = {"var_ratio": float(np.mean(var_r)), "harm_ratio": float(np.mean(harm_r))}
    problems = [
        f"{name} {v:.4g} above {prep.checks[f'{name}_max']:.4g}"
        for name, v in values.items() if not v <= prep.checks[f"{name}_max"]
    ]
    return values, problems


def sha_of(digests: dict) -> str:
    return hashlib.sha256(
        "".join(f"{k}:{v}\n" for k, v in sorted(digests.items())).encode()
    ).hexdigest()


def train_argv(prep, out: Path) -> list[str]:
    return ["train", "--config", str(prep.config_path), "--out", str(out)]


def record_paths(prep, out: Path) -> list[str]:
    return [str(out / "runs" / f"{m}_seed{s}.json") for s in prep.seeds for m in prep.methods]


def rank_argv(prep, out: Path, seed: int, rank_csv: Path | None = None) -> list[str]:
    argv = ["rank", "--runs", *record_paths(prep, out), "--k", str(workloads.RANK_K),
            "--trials", str(workloads.RANK_TRIALS), "--seed", str(seed)]
    return argv + (["--out", str(rank_csv)] if rank_csv else [])


@contextlib.contextmanager
def speed_marks():
    """Host speed samples, each with its start and end time, taken when the
    block starts, after every `_train_one` call (one (method, seed) run)
    that `harness.run_experiment` makes inside it, and when it ends."""
    marks = []

    def mark():
        t0 = time.perf_counter()
        speed = hostspeed.sample()
        marks.append((t0, time.perf_counter(), speed))

    train_one = harness._train_one

    def marked(*args, **kwargs):
        try:
            return train_one(*args, **kwargs)
        finally:
            mark()

    harness._train_one = marked
    mark()
    try:
        yield marks
    finally:
        harness._train_one = train_one
        mark()


def train_checked(prep, out: Path, fails: Failures) -> tuple[float, float, dict] | None:
    """(wall time, host-speed adjusted time, record digests) of one checked
    `vfair train` into `out`.  The samples cut the call into segments, the
    first ending with the first run, the last holding evaluation and file
    writing; each segment is scaled by the samples at its two ends."""
    shutil.rmtree(out, ignore_errors=True)
    with speed_marks() as marks:
        _, problems = run_cli(train_argv(prep, out))
    digests = {}
    if not problems:
        digests, problems = check_train(out, prep)
    if not problems and len(marks) - 2 != len(prep.methods) * len(prep.seeds):
        problems = [f"train made {len(marks) - 2} runs"]
    if not fails.attempt(problems):
        return None
    segments = [(b[0] - a[1], a[2], b[2]) for a, b in zip(marks, marks[1:])]
    wall = sum(d for d, _, _ in segments)
    adjusted = sum(hostspeed.adjusted(d, before, after) for d, before, after in segments)
    return wall, adjusted, digests


def rank_checked(prep, out: Path, seed: int, fails: Failures, min_s: float):
    """(wall times, host-speed adjusted times) of checked `vfair rank` calls
    over the records in `out`, repeated until the wall times add up to min_s."""
    rank_csv = out / "rank.csv"
    walls, adjusted = [], []
    before = hostspeed.sample()
    while not walls or sum(walls) < min_s:
        rank_csv.unlink(missing_ok=True)
        elapsed, problems = run_cli(rank_argv(prep, out, seed, rank_csv))
        after = hostspeed.sample()
        if not problems:
            problems = check_rank(rank_csv, len(prep.seeds) * len(prep.methods))
        if not fails.attempt(problems):
            return None
        walls.append(elapsed)
        adjusted.append(hostspeed.adjusted(elapsed, before, after))
        before = after
    return walls, adjusted


def measure_e2e(prep, workdir, seed, seconds, fails) -> dict:
    """Repeat train + rank for about `seconds` (at least twice).  Keeps the
    wall and the host-speed adjusted time of every train and rank call."""
    out = workdir / "out"
    times = {"train_s": [], "train_adj_s": [], "rank_s": [], "rank_adj_s": []}
    digests = None
    start = time.perf_counter()
    while True:
        trained = train_checked(prep, out, fails)
        if trained is None:
            break
        if digests is not None and not fails.attempt(
            [] if trained[2] == digests else ["records differ between repeats of one seed"]
        ):
            break
        digests = trained[2]
        ranked = rank_checked(prep, out, seed, fails, RANK_MIN_S)
        if ranked is None:
            break
        times["train_s"].append(trained[0])
        times["train_adj_s"].append(trained[1])
        times["rank_s"] += ranked[0]
        times["rank_adj_s"] += ranked[1]
        elapsed = time.perf_counter() - start
        n = len(times["train_s"])
        if n >= 2 and elapsed * (n + 1) / n > seconds:
            break
    result = dict(times)
    if times["train_s"]:
        values, problems = effect(out, prep)
        fails.attempt(problems)
        result.update(values)
        result["records_sha256"] = sha_of(digests)
        result["record_digests"] = digests
    return result


# -- traced run -------------------------------------------------------------


def trace_report(tr: Tracer, wall_s: float, untraced_s: float, traced_train_s: float) -> dict:
    """Self time per layer, per-step call counts and epoch-evaluation share."""
    names = [tr.names[i] for i in tr.name]
    parent = tr.parent
    run_method = [r.split("/")[1] for r in tr.runs]
    own = tr.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, nm in enumerate(names):
        layer = nm.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
    roots = sum(tr.end[i] - tr.start[i] for i in range(len(tr)) if parent[i] < 0)

    # owner[i]: the optimizer-step direction span that span i runs under, or -1
    owner = [-1] * len(tr)
    steps = dict.fromkeys(STEP_METHODS, 0)
    fwd = dict.fromkeys(STEP_METHODS, 0)
    bwd = dict.fromkeys(STEP_METHODS, 0)
    dro_with_backward = set()
    train_take, epoch_eval = 0, 0.0
    for i, nm in enumerate(names):
        p = parent[i]
        in_train_one = p >= 0 and names[p] == "harness._train_one"
        method = run_method[tr.run[i]]
        if in_train_one and nm in DIRECTIONS:
            owner[i] = i
            steps[method] = steps.get(method, 0) + 1
        elif p >= 0:
            owner[i] = owner[p]
        if owner[i] >= 0 and nm in ("nnet.forward", "nnet.weighted_gradient"):
            fwd[method] = fwd.get(method, 0) + 1
            if nm == "nnet.weighted_gradient":
                bwd[method] = bwd.get(method, 0) + 1
                if names[owner[i]] == "baselines.dro_direction":
                    dro_with_backward.add(owner[i])
        if in_train_one and nm == "data.take_batch":
            train_take += 1
        if in_train_one and nm in ("nnet.forward", "nnet.per_example_losses"):
            epoch_eval += tr.end[i] - tr.start[i]
    dro_objective = sum(
        c for (name, run), c in tr.counts.items()
        if name == "baselines.dro_objective" and run_method[run] == "dro"
    )
    total_steps = sum(steps.values())
    m = {f"{layer}.self_share": layer_self.get(layer, 0.0) / wall_s for layer in LAYERS}
    m["trace.unattributed_share"] = (wall_s - roots) / wall_s
    m["trace.overhead_ratio"] = traced_train_s / untraced_s
    m["_spans"] = len(tr)
    for method in STEP_METHODS:
        m[f"nnet.forwards_per_step.{method}"] = fwd[method] / max(steps[method], 1)
        m[f"nnet.backwards_per_step.{method}"] = bwd[method] / max(steps[method], 1)
    m["baselines.dro_objective_calls_per_step"] = dro_objective / max(steps["dro"], 1)
    m["baselines.dro_zero_step_ratio"] = 1.0 - len(dro_with_backward) / max(steps["dro"], 1)
    m["data.take_batch_calls_per_step"] = train_take / max(total_steps, 1)
    m["harness.epoch_eval_share"] = epoch_eval / wall_s
    m["_steps"] = steps
    m["_layer_self_s"] = layer_self
    m["_wall_s"] = wall_s
    return m


def measure_traced(prep, workdir, seed, fails) -> dict:
    plain = train_checked(prep, workdir / "out_plain", fails)
    if plain is None:
        return {}
    tr = Tracer(Path(workdir).name)
    tr.install()
    out = workdir / "out_traced"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        with tr.span("cli.train"):
            _, problems = run_cli(train_argv(prep, out))
        t1 = time.perf_counter()
        if not problems:
            with tr.span("cli.rank"):
                _, problems = run_cli(rank_argv(prep, out, seed))
        t2 = time.perf_counter()
    finally:
        tr.uninstall()
    if not problems:
        digests, problems = check_train(out, prep)
        if not problems and digests != plain[2]:
            problems = ["traced records differ from untraced records"]
    if not fails.attempt(problems):
        return {}
    # Self times partition the root spans, so the layer shares plus the
    # unattributed share are 1 whenever every span nests inside its parent.
    nested = all(s >= -1e-9 for s in tr.self_times())
    fails.attempt([] if nested else ["a traced span outlasts its parent"])
    report = trace_report(tr, t2 - t0, plain[0], t1 - t0)
    tr.write(workdir / "spans.csv")
    report["_missing_wrapped"] = tr.missing

    cfg = harness.load_config(prep.config_path)
    train, test = harness.build_datasets(cfg)
    runs = record_paths(prep, out)
    records = [harness.RunRecord.load(r) for r in runs]
    spec = harness.build_model_spec(cfg, train)
    report["_timings"] = layers.layer_timings(cfg, spec, train, test, records, seed, workdir)
    report["record_bytes"] = Path(runs[0]).stat().st_size
    report["snapshot_bytes"] = prep.epochs * nnet.parameter_count(spec) * 8
    report["untraced_train_s"] = plain[0]
    report["records_sha256"] = sha_of(plain[2])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    prep = workloads.prepared(args.workload, workdir)
    fails = Failures()
    if args.trace:
        result = measure_traced(prep, workdir, args.seed, fails)
    else:
        result = measure_e2e(prep, workdir, args.seed, args.seconds, fails)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = fails.attempted
    result["failures"] = fails.reasons
    result["vfair_file"] = vfair.__file__
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["blas"] = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        result["blas"] = None
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
