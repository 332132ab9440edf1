"""Experiment orchestration: configs, training loops, records, aggregation.

A config describes one dataset (whose spec or schema holds the task), one
model shape, and a set of (method, seed) runs.  Each run keeps, while it
trains, the parameters of the epoch it selects (the final one, or the one
whose training loss is nearest a converged mean-loss reference),
evaluates the full metric suite on the test split per sensitive
attribute, and is saved as a self-describing strict-JSON record, which
``RunRecord.load`` reads back.  Runs are deterministic in (config, seed):
identical inputs produce byte-identical records.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .baselines import DroConfig, dro_direction
from .data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    load_csv,
    split,
    synthesize,
)
from .errors import ConfigError, DataError, NumericError
from .metrics import (
    UTILITY_KINDS,
    GroupPartition,
    MetricsReport,
    build_report,
    higher_is_better,
    significance_test,
)
from .nnet import (
    ModelSpec,
    Workspace,
    _check_targets,
    _expit,
    forward,
    init_params,
    per_example_losses,
)
from .update import TRACE_ROW, UpdateState, grad_mu, vfair_direction

_VFAIR_OBJECTIVE = {"vfair_std": "std_dev", "vfair_var": "variance", "vfair_pairwise": "pairwise"}
METHODS = ("erm", *_VFAIR_OBJECTIVE, "dro")
OPTIMIZERS = ("sgd", "adagrad")
EPOCH_SELECTION = ("final", "harmless")
MAX_STEPS = 1 << 22  # steps per run, epochs x batches: hours of training; the README's takes 1,350
# a run with an epoch training loss above this many times its loss at
# initialisation has diverged; 370 trained README-grid runs peaked at 1.016
DIVERGENCE_RATIO = 1e3
_TARGETS, _KIND = ', "test_targets": ', ', "utility_kind": '  # how a saved record ends

logger = logging.getLogger(__name__)

# the step-trace columns each method fills besides "step", in trace order; erm fills none
_TRACE_FILLED = {"dro": ("eta",), **dict.fromkeys(_VFAIR_OBJECTIVE, TRACE_ROW)}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict = field(repr=False)

    # dataset: `synthetic` is set for a synthetic one, `csv_path` and `schema` for a csv one
    synthetic: SyntheticSpec | None = None
    csv_path: str | None = None
    schema: DatasetSchema | None = None
    data_seed: int = 0
    test_fraction: float = 0.3
    split_seed: int = 0

    # model
    hidden_dims: tuple = (64, 32)
    activation: str = ModelSpec.activation

    # training
    methods: tuple = ("erm",)
    optimizer: str = "sgd"
    step_size: float = UpdateState.step_size
    batch_size: int = 128
    epochs: int = 50
    decay: float = UpdateState.decay
    lambda2_cap: float = UpdateState.lambda2_cap
    dro_alpha_min: float = DroConfig.alpha_min
    seeds: tuple = (0,)
    epoch_selection: str = "final"
    utility: str = "auto"
    erm_reference_loss: float | None = None

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        for key, noun in (("methods", "method"), ("seeds", "seed")):
            runs = getattr(self, key)
            if not runs:
                raise ConfigError(f"at least one {noun} is required")
            if len(set(runs)) != len(runs):
                raise ConfigError(f"duplicate {key} in config")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.epoch_selection not in EPOCH_SELECTION:
            raise ConfigError(f"unknown epoch_selection {self.epoch_selection!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # the update's and DRO's settings are checked by their own types
        UpdateState(decay=self.decay, step_size=self.step_size, lambda2_cap=self.lambda2_cap)
        DroConfig(alpha_min=self.dro_alpha_min)
        # the task is known here, so a utility it cannot take is refused before any run
        resolve_utility(self.utility, self.task)
        if self.erm_reference_loss is not None and self.erm_reference_loss < 0.0:
            raise ConfigError("erm_reference_loss must be >= 0, as every loss is")
        if (self.epoch_selection == "harmless" and "erm" not in self.methods
                and self.erm_reference_loss is None):
            raise ConfigError(
                "harmless epoch selection needs an erm run in the same invocation "
                "or an explicit erm_reference_loss"
            )

    @property
    def task(self) -> str:
        """The task the dataset section declares, read from its spec or schema."""
        return (self.synthetic or self.schema).task


# One converter per JSON type, for config keys and record fields alike: each
# takes (value, name) and returns the value typed, or raises ValueError naming
# it `name`.  No number is ever a bool or a string.


def _integer(value, name) -> int:
    """A JSON integer, or a float with no fractional part (1e3 is 1000)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} {value!r} is not a whole number")


def _seed(value, name) -> int:
    if _integer(value, name) < 0:  # numpy's generators take no negative seed
        raise ValueError(f"{name} {value!r} is not a seed >= 0")
    return int(value)


def _number(value, name) -> float:
    """A finite JSON number; the bound refuses NaN, +-inf and an integer past the float range."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} {value!r} is not a finite number")
    return float(value)


def _string(value, name) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} {value!r} is not a string")
    return value


def _object(value, name) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def _list_of(convert, length: int | None = None):
    """The converter of a JSON list (of `length` items, if given) of `convert`'s type, as a tuple."""
    def convert_list(value, name) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise ValueError(f"{name} must be a list{f' of {length}' if length else ''}, got {value!r}")
        return tuple(convert(x, name) for x in value)
    return convert_list


def _floats(value, name) -> np.ndarray:
    """A JSON list of finite numbers as a 1-d float64 array; an array
    `_decode_record` made passes as it is."""
    if isinstance(value, np.ndarray):
        return value
    try:  # array.array takes only int and float items, and an int in the float range
        a = np.frombuffer(array.array("d", value if isinstance(value, list) else None), np.float64)
    except (OverflowError, TypeError):
        a = None
    # a bool is an int, read as 0 or 1, so a list holding a 0 or a 1 is
    # searched for one, item by item; a search of the record's text for
    # `true` and `false` would cost more
    if a is None or (((a == 0) | (a == 1)).any() and bool in set(map(type, value))):
        raise ValueError(f"{name} is not a list of numbers")
    if not np.isfinite(a).all():
        raise ValueError(f"a number is not finite in {name}")
    return a


def _numbers(value, name) -> list:
    """`_floats` as a list of floats, for a dataclass field compared by ==."""
    return _floats(value, name).tolist()


# config key -> converter, one table per section; each key of the top-level,
# model and dataset tables sets the ExperimentConfig field of its name (the
# synthetic generator's "seed" sets data_seed, a csv's "path" csv_path).  An
# absent or null key keeps the field's default, and the update's and DRO's
# fields take theirs from UpdateState and DroConfig, so each default is
# written once.  A key that no table of its section names is refused.
_TOP_LEVEL_KEYS = {
    "methods": _list_of(_string), "optimizer": _string, "step_size": _number,
    "batch_size": _integer, "epochs": _integer, "decay": _number, "lambda2_cap": _number,
    "dro_alpha_min": _number, "seeds": _list_of(_seed), "epoch_selection": _string,
    "utility": _string, "erm_reference_loss": _number,
}
_DATASET_KEYS = {"test_fraction": _number, "split_seed": _seed}
_MODEL_KEYS = {"hidden_dims": _list_of(_integer), "activation": _string}
# the synthetic generator's keys, all required but "task"
_SYNTHETIC_KEYS = {
    "n": _integer, "group_ratio": _number, "feature_dim": _integer, "minority_shift": _number,
    "noise_std": _number, "task": _string,
}
# a csv dataset's schema keys, all required but "sensitive"
_SCHEMA_KEYS = {
    "features": _list_of(_list_of(_string, 2)), "label": _string,
    "sensitive": _list_of(_string), "task": _string,
}


def _typed(section: dict, table: dict, where: str = "", also=()) -> dict:
    """The converted values of the keys in `section` that `table` names.  A
    key in neither `table` nor `also` (the keys read elsewhere), or a value
    its converter refuses, is a ConfigError naming `where` + key."""
    try:
        section = _object(section, f"config section {where.rstrip('.')!r}")
        unknown = sorted(set(section) - set(table) - set(also))
        if unknown:
            raise ValueError(f"unknown config keys: {[where + k for k in unknown]}")
        return {key: convert(section[key], f"config key {where + key!r}")
                for key, convert in table.items() if section.get(key) is not None}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_from_dict(d: dict) -> ExperimentConfig:
    """Validate and type a parsed config mapping (see README for the schema)."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    fields = _typed(d, _TOP_LEVEL_KEYS, also=("dataset", "model"))
    fields |= _typed({} if d.get("model") is None else d["model"], _MODEL_KEYS, "model.")

    ds = d.get("dataset")
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ConfigError("config needs a dataset section with a 'kind'")
    kind = ds["kind"]
    if kind == "synthetic":
        missing = [k for k in _SYNTHETIC_KEYS if k != "task" and ds.get(k) is None]
        if missing:
            raise ConfigError(f"synthetic dataset section is missing {missing[0]!r}")
        fields |= _typed(ds, _SYNTHETIC_KEYS | _DATASET_KEYS | {"seed": _seed}, "dataset.",
                         also=("kind",))
        fields["synthetic"] = SyntheticSpec(
            **{k: fields.pop(k) for k in _SYNTHETIC_KEYS if k in fields})
    elif kind == "csv":
        if ds.get("path") is None or ds.get("schema") is None:
            raise ConfigError("csv dataset section needs 'path' and 'schema'")
        fields |= _typed(ds, _DATASET_KEYS | {"path": _string}, "dataset.", also=("kind", "schema"))
        sc = _typed(ds["schema"], _SCHEMA_KEYS, "dataset.schema.")
        missing = [k for k in _SCHEMA_KEYS if k != "sensitive" and k not in sc]
        if missing:
            raise ConfigError(f"csv schema section is missing {missing[0]!r}")
        fields |= {"csv_path": fields.pop("path"), "schema": DatasetSchema(
            sc["features"], sc["label"], sc.get("sensitive", ()), sc["task"])}
    else:
        raise ConfigError(f"dataset kind must be 'synthetic' or 'csv', got {kind!r}")

    if "seed" in fields:
        fields["data_seed"] = fields.pop("seed")
    return ExperimentConfig(raw=d, **fields)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    # bad JSON, an integer above Python's digit limit, not UTF-8, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(d)


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    full = (synthesize(cfg.synthetic, seed=cfg.data_seed) if cfg.synthetic is not None
            else load_csv(cfg.csv_path, cfg.schema))
    return split(full, test_fraction=cfg.test_fraction, seed=cfg.split_seed)


def build_model_spec(cfg: ExperimentConfig, train: Dataset) -> ModelSpec:
    return ModelSpec(
        input_dim=train.feature_dim,
        hidden_dims=cfg.hidden_dims,
        output_dim=int(train.targets.max()) + 1 if cfg.task == "multiclass_ce" else 1,
        task=cfg.task,
        activation=cfg.activation,
    )


def resolve_utility(utility: str, task: str) -> str:
    """Map the configured utility to a kind that scores the task (`metrics.UTILITY_KINDS`)."""
    if utility == "auto":
        return "mse" if task in ("regression_mse", "logistic_regression_mse") else "accuracy"
    if task not in UTILITY_KINDS.get(utility, ()):
        raise ConfigError(f"utility {utility!r} is not defined for task {task!r}")
    return utility


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class Sgd:
    def __init__(self, step_size: float):
        self.step_size = step_size

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """params -= step_size * grad, in place."""
        params -= self.step_size * grad


class Adagrad:
    """Per-coordinate scaling by accumulated squared gradients."""

    def __init__(self, step_size: float, dim: int):
        self.step_size = step_size
        self.accum = np.zeros(dim)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Accumulate grad^2, then update params in place."""
        self.accum += grad * grad
        # 1e-10 keeps a coordinate whose gradients have all been zero finite
        params -= self.step_size * grad / (np.sqrt(self.accum) + 1e-10)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    method: str
    seed: int
    per_epoch_loss: list
    selected_epoch: int
    params: np.ndarray
    metrics: dict            # partition label -> MetricsReport
    utility_kind: str
    test_predictions: np.ndarray  # decoded per utility kind
    test_targets: np.ndarray
    config: dict = field(default_factory=dict)

    def to_json_dict(self, targets: bool = True) -> dict:
        """Every field as a JSON value (see `_json_value`); `test_targets`
        only if `targets`.  Not ``asdict(self)``, which would copy the arrays."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)
                if targets or f.name != "test_targets"}

    def save(self, path, targets_json: str | None = None) -> None:
        """Strict JSON; fields that disagree (see `_checked`) or a non-finite
        value raise before anything is written.
        `json.dumps(..., sort_keys=True)`'s bytes, encoded key by key, so a
        train's records can share `targets_json`, their `test_targets` text."""
        self._checked()
        try:
            text = {k: encode_json(v) for k, v in self.to_json_dict(not targets_json).items()}
        except ValueError as exc:
            raise NumericError(f"{self.method} seed={self.seed}: record not saved: {exc}") from None
        text.setdefault("test_targets", targets_json)  # when to_json_dict left it out
        _write_atomically(path, "{" + ", ".join(f"{json.dumps(k)}: {text[k]}" for k in sorted(text)) + "}")

    @classmethod
    def load(cls, path, decoded: dict | None = None) -> "RunRecord":
        """A saved record, its fields typed by `_RECORD_FIELDS`; any other
        file, one whose fields disagree included, raises DataError.  Like
        `save`, it takes strict JSON only: a `NaN`, `Infinity` or `-Infinity`
        is refused, and so is a literal that overflows to infinity, such as
        `1e999`.  With `decoded`, one dict per command, a train's records
        share one read-only `test_targets` array, their shared text decoded
        and typed once (see `_decode_record`)."""
        try:
            d = _decode_record(Path(path).read_text(encoding="utf-8"), decoded)
            return cls(**_fields(d, _RECORD_FIELDS))._checked()
        except (ArithmeticError, LookupError, RecursionError, TypeError, ValueError) as exc:
            raise DataError(f"{path} is not a run record: {exc}") from None

    def _checked(self) -> "RunRecord":
        """This record, if its fields agree with each other; else ValueError."""
        kind = self.utility_kind
        if kind not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {kind!r}")
        if not 0 <= self.selected_epoch < len(self.per_epoch_loss):
            raise ValueError(f"selected_epoch {self.selected_epoch} is not an index of per_epoch_loss")
        if "overall" not in self.metrics:
            raise ValueError("metrics holds no 'overall' report")
        for report in self.metrics.values():
            if report.utility_kind != kind:
                raise ValueError(f"a metrics report's utility_kind is not the record's {kind!r}")
            if report.n_examples != len(self.test_targets):
                raise ValueError("a metrics report's n_examples is not the length of test_targets")
        return self


def _json_value(value):
    """A record field's JSON value: an array as a list, each report of a dict
    as a dict; any other value as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: asdict(v) if is_dataclass(v) else v for k, v in value.items()}
    return value


def _fields(value, table: dict, where: str = "") -> dict:
    """The keys of JSON object `value` that `table` names, typed and called `where` + key."""
    value = _object(value, where.rstrip(".") or "a record")
    return {k: convert(value[k], where + k) for k, convert in table.items() if k in value}


def _reports(value, name) -> dict:
    """Partition label -> MetricsReport; an unknown key reaches MetricsReport, which refuses it."""
    return {label: MetricsReport(**report | _fields(report, _REPORT_FIELDS, f"{name}.{label}."))
            for label, report in _object(value, name).items()}


# record field -> converter; every field but "config" is required, and a
# field the table does not name is ignored
_RECORD_FIELDS = {
    "method": _string, "seed": _seed, "per_epoch_loss": _numbers,
    "selected_epoch": _integer, "params": _floats, "metrics": _reports,
    "utility_kind": _string, "test_predictions": _floats, "test_targets": _floats,
    "config": _object,
}
# MetricsReport field -> converter; every field but "partition_label" is required
_REPORT_FIELDS = {
    "utility_kind": _string, "utility": _number, "per_group_utility": _numbers,
    "wu": _number, "mud": _number, "tud": _number, "var": _number, "n_examples": _integer,
    "partition_label": _string,
}


def encode_json(value) -> str:
    """Strict JSON text of `value`, keys sorted, as a saved record holds it."""
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _not_strict(token: str):
    """`json.loads`' hook for the tokens strict JSON lacks: refuse them."""
    raise ValueError(f"{token} is not strict JSON")


def _decode_record(text: str, decoded: dict | None):
    """The strict JSON value of a record's `text`.  A text ending as `save`
    writes it, ``, "test_targets": T, "utility_kind": K}`` (separators found
    by their last occurrence, K a string), is decoded with T cut out, and T's
    array taken from or added to `decoded`.  That is exact: a separator's bare
    ``"`` cannot lie in a JSON string, so if the cut text decodes, its last
    ``}`` closes the root and both separators are the root's; T decodes alone,
    so it is one whole value.  Any other text, or a piece that fails, is
    decoded whole, to the same value or the same error."""
    t, k = text.rfind(_TARGETS), text.rfind(_KIND)
    if decoded is not None and 0 <= t < k:
        strict = json.JSONDecoder(parse_constant=_not_strict)
        with contextlib.suppress(ArithmeticError, TypeError, ValueError):
            kind, end = strict.raw_decode(text, k + len(_KIND))
            if isinstance(kind, str) and text[end:] == "}":
                d, targets = strict.decode(text[:t] + text[k:]), text[t + len(_TARGETS):k]
                if targets not in decoded:
                    decoded[targets] = _floats(strict.decode(targets), "test_targets")
                    decoded[targets].flags.writeable = False
                d["test_targets"] = decoded[targets]
                return d
    return json.loads(text, parse_constant=_not_strict)


def _write_atomically(path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then move it onto `path`:
    a reader sees the old file or the whole new one, never a torn write.
    A failed write removes the temp file if it exists and re-raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the temp file may never have existed
            tmp.unlink()
        raise


def _write_csv(path, header, rows) -> None:
    """A header and rows of values, each in column order; None is a blank."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomically(path, buf.getvalue())


def write_trace(trace, path) -> None:
    """Step-trace CSV of `trace`'s columns, in its order ("step" first, as
    `_trace` builds it), written column by column with the bytes
    ``_write_csv`` writes for one row per step.  `trace` maps each column
    to an equal-length array ("step" holds integers)."""
    # str of a Python int or float is what csv.writer writes for it
    cells = [map(str, values.tolist()) for values in trace.values()]
    _write_atomically(path, "\r\n".join([",".join(trace), *map(",".join, zip(*cells)), ""]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train_one(cfg: ExperimentConfig, spec: ModelSpec, train: Dataset, method: str, seed: int,
               reference: float | None = None, init_loss: float | None = None):
    """Train one (method, seed); returns (selected params, selected epoch,
    per-epoch loss, trace).  The selected epoch is the last one, or with a
    `reference` loss the one whose training loss is nearest it (earliest
    wins ties).  The trace maps "step" and the columns the method fills
    to one value per step.  A NumericError names the run and epoch, and
    carries the trace up to the failing step: a loss that is not finite
    stops the run at its step, and a run that ends with an epoch loss
    above DIVERGENCE_RATIO times `init_loss`, the full-train loss at
    initialisation, is refused naming the first such epoch.

    The run's workspaces are built once: an ``nnet.Workspace`` over the
    parameters, which every update overwrites in place, one copy of the
    training rows, which each epoch's shuffle gathers into, with its
    minibatch views, and one [steps, columns] array of trace values.
    """
    params = init_params(spec, seed)
    ws = Workspace(spec, params)
    optimizer = Sgd(cfg.step_size) if cfg.optimizer == "sgd" else Adagrad(cfg.step_size, len(params))
    state = UpdateState(decay=cfg.decay, lambda2_cap=cfg.lambda2_cap)
    dro_cfg = DroConfig(alpha_min=cfg.dro_alpha_min)
    objective = _VFAIR_OBJECTIVE.get(method)
    rng = np.random.default_rng(seed)

    _check_targets(spec.task, train.targets, spec.output_dim)
    steps = cfg.epochs * -(-train.n // cfg.batch_size)
    if steps > MAX_STEPS:
        raise ConfigError(f"epochs x batches per epoch is above MAX_STEPS = {MAX_STEPS}")
    filled = _TRACE_FILLED.get(method, ())
    values = np.empty((steps, len(filled)))
    best, best_epoch = np.empty_like(params), 0  # epoch 0 always fills it
    per_epoch_loss = []
    step = 0
    # epoch 0's rows; each later epoch gathers into them, so the views made here see its rows
    shuffled = train.subset(rng.permutation(train.n))
    batches = [shuffled.subset(slice(start, start + cfg.batch_size))
               for start in range(0, train.n, cfg.batch_size)]
    try:
        for epoch in range(cfg.epochs):
            if epoch:
                train.subset(rng.permutation(train.n), out=shuffled)
            for batch in batches:
                if method == "erm":
                    grad = grad_mu(spec, ws, batch)
                elif method == "dro":
                    grad, eta = dro_direction(spec, ws, batch, dro_cfg)
                    values[step, 0] = eta
                else:
                    grad, state, row = vfair_direction(state, spec, ws, batch, objective)
                    values[step] = row
                optimizer.step(params, grad)
                step += 1
            loss = _mean_loss(spec, ws, train)
            per_epoch_loss.append(loss)
            if reference is None or epoch == 0 or (
                abs(loss - reference) < abs(per_epoch_loss[best_epoch] - reference)
            ):
                best[...] = params
                best_epoch = epoch
    except NumericError as exc:
        raise NumericError(f"{method} seed={seed} epoch={epoch} step={step}: {exc}",
                           (method, seed), _trace(filled, values[:step])) from exc
    trace = _trace(filled, values)
    # a finite divergence, checked once the run has trained, so that a loss
    # that overflows on the way is reported at its step
    for epoch, loss in enumerate(per_epoch_loss):
        if init_loss and loss > DIVERGENCE_RATIO * init_loss:
            raise NumericError(f"{method} seed={seed} epoch={epoch}: training loss {loss:.6g} is "
                               f"{loss / init_loss:.3g} times its value at initialisation",
                               (method, seed), trace)
    return best, best_epoch, per_epoch_loss, trace


def _trace(filled, values) -> dict:
    """Column -> values of a [steps, len(filled)] array, with "step"; {} if `filled` is empty."""
    return {"step": np.arange(len(values)), **dict(zip(filled, values.T))} if filled else {}


def _initial_loss(spec: ModelSpec, train: Dataset, seed: int) -> float | None:
    """The full-train mean loss at `init_params(spec, seed)`, where every run
    of `seed` starts; None if a loss there is not finite, which the runs'
    own loss checks then report, naming their step."""
    try:
        return _mean_loss(spec, init_params(spec, seed), train)
    except NumericError:
        return None


def _mean_loss(spec: ModelSpec, params, split: Dataset) -> float:
    """The mean per-example loss over `split` at `params`, the vector or a
    workspace over it: sum / n, the bits of ``np.mean``."""
    losses = per_example_losses(spec, forward(spec, params, split), split.targets)
    return float(losses.sum() / len(losses))


def evaluate(cfg, spec, test: Dataset, params, method: str, seed: int) -> dict:
    """The test half of run (`method`, `seed`)'s record: its metric reports,
    utility kind and test predictions, keyed by their RunRecord fields.  The
    outputs are decoded for the utility kind, as float64: mse scores point
    predictions (the regression output, or the probability of a logit),
    accuracy and f1 hard labels (the argmax class, or logit > 0)."""
    _check_targets(spec.task, test.targets, spec.output_dim)
    outputs = forward(spec, params, test)
    try:
        losses = per_example_losses(spec, outputs, test.targets)
    except NumericError as exc:
        raise NumericError(f"{method} seed={seed}: test split: {exc}") from exc
    kind = resolve_utility(cfg.utility, spec.task)
    if kind == "mse":
        preds = outputs[:, 0] if spec.task == "regression_mse" else _expit(outputs[:, 0])
    else:
        preds = (outputs.argmax(axis=1) if spec.task == "multiclass_ce"
                 else outputs[:, 0] > 0.0).astype(np.float64)

    parts = [GroupPartition.whole(test.n, label="overall"),
             *(GroupPartition.from_values(v, label=name) for name, v in test.sensitive.items())]
    reports = {p.label: build_report(preds, test.targets, losses, p, kind) for p in parts}
    return {"metrics": reports, "utility_kind": kind, "test_predictions": preds}


def run_experiment(cfg: ExperimentConfig):
    """Train and evaluate every (method, seed) pair of the config, yielding
    each run's (RunRecord, trace) as soon as it is evaluated; the trace maps
    step-trace columns to values, {} for erm.  A generator: the data are
    built and checked at the first next().

    The mean-loss baseline trains first within each seed so the harmless
    epoch selection of the other methods can reference its final
    training loss for that same seed; without an explicit reference the
    baseline itself takes its final epoch.
    """
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    try:  # before any run trains: a test class the training split lacks
        _check_targets(spec.task, test.targets, spec.output_dim)
    except DataError as exc:
        raise DataError(f"test split: {exc}") from None
    c2 = DroConfig(alpha_min=cfg.dro_alpha_min).scale ** 2
    if "dro" in cfg.methods and cfg.batch_size <= c2:
        # dro_eta's C >= sqrt(b) case: eta* is the largest loss, the step zero
        logger.warning(
            "dro: batch_size %d <= C^2 = %.6g (dro_alpha_min %g): every full-batch "
            "step is exactly zero, so dro stays at its initialisation",
            cfg.batch_size, c2, cfg.dro_alpha_min,
        )
    ordered = sorted(cfg.methods, key=lambda m: m != "erm")  # erm first if present

    harmless = cfg.epoch_selection == "harmless"
    for seed in cfg.seeds:
        reference = cfg.erm_reference_loss
        with np.errstate(over="ignore", invalid="ignore"):
            init_loss = _initial_loss(spec, train, seed)
        for method in ordered:
            # a run that breaks down numerically reports itself once, as the
            # NumericError of a loss check or of RunRecord.save, not after a
            # burst of overflow warnings; the errstate never spans a yield
            with np.errstate(over="ignore", invalid="ignore"):
                params, chosen, per_epoch_loss, trace = _train_one(
                    cfg, spec, train, method, seed, reference if harmless else None, init_loss
                )
                tested = evaluate(cfg, spec, test, params, method, seed)
            if method == "erm" and reference is None:
                reference = per_epoch_loss[-1]
            yield RunRecord(method, seed, per_epoch_loss, chosen, params, test_targets=test.targets,
                            config=cfg.raw, **tested), trace


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _improvement(kind: str, metric: str, method_mean: float, erm_mean: float) -> float:
    """Signed so that positive always means the method beats the baseline."""
    if metric in ("utility", "wu") and higher_is_better(kind):
        return method_mean - erm_mean
    return erm_mean - method_mean


@dataclass
class AggregateTable:
    rows: list  # dicts of the cells each row fills; a cell it lacks is blank

    COLUMNS = ["partition", "method", "n_runs"] + [
        f"{m}_{s}"
        for m in MetricsReport.SCALARS
        for s in ("mean", "std", "p_vs_erm", "impr_vs_erm")
    ]

    def to_csv(self, path) -> None:
        _write_csv(path, self.COLUMNS, ([row.get(c) for c in self.COLUMNS] for row in self.rows))


def aggregate(records) -> AggregateTable:
    """Per (partition, method) mean/std over seeds, Welch p and signed
    improvement against the mean-loss baseline where available, of only
    the facts the partition adds: with one group (k = 1, by the row's first
    report) its utility and VAR, else its wu and mud, and tud if k > 2."""
    if not records:
        raise ConfigError("no records to aggregate")
    methods = dict.fromkeys(r.method for r in records)
    # partition -> method -> its reports: rows in record order, each group's
    # reports in seed order, so any listing of a train's records sums alike
    reports = {p: {m: [] for m in methods} for r in records for p in r.metrics}
    for r in sorted(records, key=lambda r: r.seed):
        for partition, report in r.metrics.items():
            reports[partition][r.method].append(report)

    def values(group, metric):
        return np.asarray([getattr(rep, metric) for rep in group], dtype=np.float64)

    rows = []
    for partition, by_method in reports.items():
        erm = by_method.get("erm")  # a partition no erm run has gets no deltas
        for method, group in by_method.items():
            if not group:
                continue
            k = len(group[0].per_group_utility)  # with two groups tud is mud
            row = {"partition": partition, "method": method, "n_runs": len(group)}
            for metric in ("utility", "var") if k == 1 else ("wu", "mud", "tud")[:2 + (k > 2)]:
                vals = values(group, metric)
                row[f"{metric}_mean"] = float(vals.mean())
                if len(vals) > 1:
                    row[f"{metric}_std"] = float(vals.std(ddof=1))
                if method != "erm" and erm:
                    erm_vals = values(erm, metric)
                    row[f"{metric}_impr_vs_erm"] = _improvement(
                        group[0].utility_kind, metric, float(vals.mean()), float(erm_vals.mean()))
                    if len(vals) > 1 and len(erm_vals) > 1:
                        row[f"{metric}_p_vs_erm"] = significance_test(erm_vals, vals)
            rows.append(row)
    return AggregateTable(rows=rows)


# ---------------------------------------------------------------------------
# Loss curves
# ---------------------------------------------------------------------------


def emit_loss_curve(spec: ModelSpec, params, dataset: Dataset, path) -> np.ndarray:
    """Sorted per-example losses of a model over a dataset, written to
    `path` as CSV of (rank, loss) with a final mean row.  The dataset's
    labels are checked against the model here, where they enter."""
    _check_targets(spec.task, dataset.targets, spec.output_dim)
    losses = np.sort(per_example_losses(spec, forward(spec, params, dataset), dataset.targets))
    rows = [*enumerate(losses.tolist(), start=1), ("mean", float(losses.mean()))]
    _write_csv(path, ("rank", "loss"), rows)
    return losses
