"""Set-up probe: the cost a `vfair train` user pays before the first step.

    python3 perfbench/probe.py CONFIG.json 0|1

A fresh process times `import vfair.cli`, then
`harness.build_datasets(load_config(CONFIG))`, and prints one JSON line.
With a second argument of 1 it then also times `data.load_csv` on the
synthetic dataset written out as CSV (not part of the set-up time).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    config_path, with_csv = sys.argv[1], sys.argv[2] == "1"
    t0 = time.perf_counter()
    import vfair.cli  # noqa: F401  (the import is what is timed)
    from vfair import harness

    t1 = time.perf_counter()
    cfg = harness.load_config(config_path)
    train, test = harness.build_datasets(cfg)
    t2 = time.perf_counter()
    out = {
        "import_s": t1 - t0,
        "build_datasets_s": t2 - t1,
        "setup_s": t2 - t0,
        "rows": train.n + test.n,
        "vfair_file": vfair.__file__,
    }
    if with_csv:
        out["load_csv_s"], out["csv_rows"] = _load_synthetic_as_csv(cfg, train, test)
    print(json.dumps(out))
    return 0


def _load_synthetic_as_csv(cfg, train, test):
    """(seconds, rows) of `load_csv` on the synthetic dataset written as CSV."""
    import numpy as np

    from vfair.data import DatasetSchema, load_csv

    d = train.feature_dim
    path = Path(sys.argv[1]).with_name("synthetic.csv")
    table = np.column_stack([
        np.vstack([train.features, test.features]),
        np.concatenate([train.targets, test.targets]),
        np.concatenate([train.sensitive["group"], test.sensitive["group"]]),
    ])
    header = ",".join([f"f{j}" for j in range(d)] + ["y", "group"])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")
    schema = DatasetSchema(
        feature_columns=tuple((f"f{j}", "numeric") for j in range(d)),
        label_column="y", sensitive_columns=("group",), task=cfg.synthetic.task,
    )
    start = time.perf_counter()
    ds = load_csv(path, schema)
    return time.perf_counter() - start, ds.n + ds.rejected_rows


if __name__ == "__main__":
    sys.exit(main())
