"""Command-line entry points.

Subcommands:
  train    run every (method, seed) pair of a JSON config; write run
           records, step traces, and an aggregate table to --out
  rank     average metric ranks of saved runs over random partitions
  curve    sorted per-example loss curve of one saved run
  compare  aggregate table across saved runs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .harness import (
    RunRecord,
    _write_csv,
    aggregate,
    build_datasets,
    build_model_spec,
    config_from_dict,
    emit_loss_curve,
    encode_json,
    load_config,
    run_experiment,
    write_trace,
)
from .metrics import MAX_TRIALS, RANK_METRICS, random_partition_rank


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfair",
        description="Train and compare variance-suppressing fair learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run all (method, seed) pairs of a config")
    p_train.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(handler=_cmd_train)

    p_rank = sub.add_parser("rank", help="average ranks over random partitions")
    p_rank.add_argument("--runs", required=True, nargs="+", help="run record JSON files")
    p_rank.add_argument("--k", type=int, default=10, help="groups per random partition")
    p_rank.add_argument("--trials", type=int, default=100, help=f"number of random partitions, at most {MAX_TRIALS}")
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.add_argument("--out", default=None, help="optional CSV output path")
    p_rank.set_defaults(handler=_cmd_rank)

    p_curve = sub.add_parser("curve", help="sorted per-example loss curve of one run")
    p_curve.add_argument("--run", required=True, help="run record JSON file")
    p_curve.add_argument("--split", choices=("train", "test"), default="test")
    p_curve.add_argument("--out", required=True, help="CSV output path")
    p_curve.set_defaults(handler=_cmd_curve)

    p_cmp = sub.add_parser("compare", help="aggregate metrics across saved runs")
    p_cmp.add_argument("--runs", required=True, nargs="+", help="run record JSON files")
    p_cmp.add_argument("--out", default=None, help="optional CSV output path")
    p_cmp.set_defaults(handler=_cmd_compare)

    return parser


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    records, targets_json = [], None
    # each run's files are written as it finishes, so a run that fails
    # later leaves them in place; aggregate.csv only follows the last run
    try:
        for rec, trace in run_experiment(cfg):
            # every record of one train holds the same test targets: encode them once
            targets_json = targets_json or encode_json(rec.test_targets.tolist())
            stem = f"{rec.method}_seed{rec.seed}"
            rec.save(out / "runs" / f"{stem}.json", targets_json)
            if trace:
                write_trace(trace, out / "traces" / f"{stem}.csv")
            overall = rec.metrics["overall"]
            print(
                f"{rec.method} seed={rec.seed} epoch={rec.selected_epoch} "
                f"{rec.utility_kind}={overall.utility:.6g} var={overall.var:.6g}"
            )
            records.append(rec)
    except NumericError as exc:
        if exc.trace:  # a failed run's trace, named apart from a finished run's
            method, seed = exc.run
            write_trace(exc.trace, out / "traces" / f"{method}_seed{seed}.failed.csv")
        raise
    aggregate(records).to_csv(out / "aggregate.csv")
    print(f"wrote {len(records)} runs to {out}")
    return 0


def _load_runs(args) -> list:
    """The records of ``--runs``; refused unless of one utility kind, each file once."""
    decoded = {}  # test-targets text -> array, for this command only
    records = [RunRecord.load(p, decoded) for p in args.runs]
    if len({rec.utility_kind for rec in records}) > 1:
        raise DataError(f"{args.command} needs runs sharing one utility kind")
    paths = [Path(p).resolve() for p in args.runs]
    for i, rec in enumerate(records):
        if paths[i] in paths[:i]:
            raise DataError(f"duplicate run {rec.method}_seed{rec.seed}")
    return records


def _cmd_rank(args) -> int:
    records = _load_runs(args)
    targets = records[0].test_targets
    kind = records[0].utility_kind
    per_method = {}
    for rec in records:
        if not np.array_equal(rec.test_targets, targets):
            raise DataError("rank needs runs evaluated on the identical test split")
        name = f"{rec.method}_seed{rec.seed}"
        if name in per_method:
            raise DataError(f"duplicate run {name}")
        per_method[name] = rec.test_predictions
    ranks = random_partition_rank(
        per_method, targets, k=args.k, trials=args.trials, seed=args.seed, kind=kind
    )
    header = ("method", *RANK_METRICS)
    if args.out:
        rows = ((m, *(f"{v:.6g}" for v in r)) for m, r in zip(per_method, ranks))
        _write_csv(args.out, header, rows)
    print(",".join(header))
    for m, r in zip(per_method, ranks):
        print(m + "," + ",".join(f"{v:.4f}" for v in r))
    return 0


def _cmd_curve(args) -> int:
    rec = RunRecord.load(args.run)
    if not rec.config:
        raise DataError("run record has no embedded config; cannot rebuild the dataset")
    cfg = config_from_dict(rec.config)
    train, test = build_datasets(cfg)
    dataset = train if args.split == "train" else test
    spec = build_model_spec(cfg, train)
    losses = emit_loss_curve(spec, rec.params, dataset, path=args.out)
    print(
        f"{args.split} losses: n={len(losses)} mean={losses.mean():.6g} "
        f"max={losses.max():.6g} -> {args.out}"
    )
    return 0


def _cmd_compare(args) -> int:
    table = aggregate(_load_runs(args))
    if args.out:
        table.to_csv(args.out)
    for row in table.rows:  # each row's means: the facts its partition adds
        means = "".join(f" {c[:-5]}={v:.6g}" for c, v in row.items() if c.endswith("_mean"))
        print(f"{row['partition']}/{row['method']}: n={row['n_runs']}{means}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DataError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
