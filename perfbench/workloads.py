"""The benchmark's pinned workloads.

Each workload writes one `vfair train` config.  The benchmark seed is the
`vfair rank --seed`; the training data is pinned (see `_synthetic_config`).
The program receives only the config; everything else about a workload is
fixed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ALL_METHODS = ["erm", "vfair_std", "vfair_var", "vfair_pairwise", "dro"]
TEST_FRACTION = 0.3

# rank is always invoked as `vfair rank --k 10 --trials 100`
RANK_K = 10
RANK_TRIALS = 100

# Output check: vfair_std must keep the variance ratio it reaches on the
# pinned data (within this share) and stay harmless, its test MSE at most
# HARM_RATIO_MAX times ERM's.
VAR_RATIO_SLACK = 0.10
HARM_RATIO_MAX = 1.05


@dataclass(frozen=True)
class Workload:
    n: int
    hidden: list
    batch: int
    epochs: int
    seeds: list
    # vfair_std / erm test-loss VAR on the pinned data; deterministic,
    # measured on the seed code (identical on every run and benchmark seed)
    var_ratio_ref: float


WORKLOADS = {
    # the README config verbatim
    "readme_small": Workload(1500, [16, 8], 128, 150, [0, 1, 2], var_ratio_ref=0.3370),
    "large_batch": Workload(100_000, [64, 32], 512, 3, [0], var_ratio_ref=0.5436),
}


@dataclass(frozen=True)
class Prepared:
    """A workload materialised in a work directory."""

    config: dict
    config_path: Path
    n_rows: int  # rows the program keeps (before the split)
    # upper limits of the output check: var_ratio_max and harm_ratio_max
    checks: dict

    @property
    def n_test(self) -> int:
        return int(round(self.n_rows * TEST_FRACTION))

    @property
    def n_train(self) -> int:
        return self.n_rows - self.n_test

    @property
    def methods(self) -> list:
        return list(self.config["methods"])

    @property
    def seeds(self) -> list:
        return list(self.config["seeds"])

    @property
    def epochs(self) -> int:
        return int(self.config["epochs"])

    @property
    def examples(self) -> int:
        """Training examples processed by one `vfair train` call."""
        return len(self.methods) * len(self.seeds) * self.epochs * self.n_train


def _synthetic_config(w: Workload) -> dict:
    # The README's synthetic dataset, seeds included.  The data stays pinned
    # because both the variance ratio and the divergence of vfair_var depend
    # on the drawn dataset (see perfbench/README.md).
    return {
        "dataset": {
            "kind": "synthetic",
            "n": w.n, "group_ratio": 0.3, "feature_dim": 4,
            "minority_shift": 1.0, "noise_std": 0.1,
            "task": "regression_mse",
            "seed": 9, "test_fraction": TEST_FRACTION, "split_seed": 3,
        },
        "model": {"hidden_dims": w.hidden, "activation": "relu"},
        "methods": ALL_METHODS,
        "optimizer": "sgd",
        "step_size": 0.01,
        "batch_size": w.batch,
        "epochs": w.epochs,
        "decay": 0.99,
        "lambda2_cap": 3.0,
        "dro_alpha_min": 0.2,
        "seeds": w.seeds,
        "epoch_selection": "harmless",
        "utility": "auto",
    }


def prepared(name: str, workdir: Path) -> Prepared:
    """Workload `name` with its config at `workdir`/config.json (a path
    relative to the checkout root, which is the working directory)."""
    w = WORKLOADS[name]
    checks = {"var_ratio_max": w.var_ratio_ref * (1 + VAR_RATIO_SLACK),
              "harm_ratio_max": HARM_RATIO_MAX}
    return Prepared(_synthetic_config(w), workdir / "config.json", w.n, checks)


def prepare(name: str, workdir: Path) -> Prepared:
    """`prepared(name, workdir)`, with its config written out."""
    prep = prepared(name, workdir)
    prep.config_path.write_text(json.dumps(prep.config, indent=2, sort_keys=True), encoding="utf-8")
    return prep
