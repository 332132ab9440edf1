"""Span tracing from outside the package.

The vfair modules call each other through module globals (`harness` does
`from .nnet import forward` and then calls `forward(...)`), and those
names are looked up at call time.  Replacing a global with a timing
wrapper therefore traces every call made through it without editing the
package.  `Tracer.install` does the replacement and `Tracer.uninstall`
puts every original back.

Spans are kept in flat arrays (name, parent, run, start, end) and written
out once the traced run is over.  A span's layer is the module that
defines the wrapped function, so `harness.forward` counts as `nnet`.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

# module -> names looked up through it ("Class.method" for methods).  Names
# missing in the traced code are skipped and listed in `Tracer.missing`.
WRAPPED = {
    "vfair.cli": ["run_experiment", "write_trace", "aggregate", "random_partition_rank"],
    "vfair.harness": [
        "build_datasets", "synthesize", "load_csv", "split", "take_batch",
        "_train_one", "grad_mu", "vfair_direction", "dro_direction", "forward",
        "per_example_losses", "evaluate", "build_report", "significance_test",
        "RunRecord.save", "RunRecord.load", "AggregateTable.to_csv",
    ],
    "vfair.update": ["forward", "per_example_losses", "weighted_gradient", "grad_mu"],
    "vfair.baselines": ["forward", "per_example_losses", "weighted_gradient", "dro_eta"],
    "vfair.metrics": ["group_utilities", "random_partition"],
}
# Called tens of times per DRO step from a function of the same layer:
# counted, not spanned, which leaves the layer's self time unchanged.
COUNTED = {"vfair.baselines": ["dro_objective"]}

# functions whose (method, seed) arguments name the run the spans belong to
RUN_SCOPES = ("_train_one", "evaluate")

LAYERS = ("nnet", "update", "baselines", "data", "harness", "metrics", "cli")


def _span_name(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return f"{module.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = [f"{workload}/-"]
        self._run_ids: dict[str, int] = {self.runs[0]: 0}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, int], int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run_stack: list[int] = [0]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _run_id(self, method, seed) -> int:
        key = f"{self.workload}/{method}/seed{seed}"
        if key not in self._run_ids:
            self._run_ids[key] = len(self.runs)
            self.runs.append(key)
        return self._run_ids[key]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the CLI calls)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanning(self, fn):
        name_id = self._name_id(_span_name(fn))
        scope = fn.__name__ in RUN_SCOPES
        signature = inspect.signature(fn) if scope else None
        tracer = self

        def traced(*args, **kwargs):
            if scope:
                bound = signature.bind(*args, **kwargs).arguments
                tracer._run_stack.append(tracer._run_id(bound.get("method"), bound.get("seed")))
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if scope:
                    tracer._run_stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        name = _span_name(fn)
        counts = self.counts
        run_stack = self._run_stack

        def counted(*args, **kwargs):
            key = (name, run_stack[-1])
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing -------------------------------------------------------

    def _replace(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module_name}.{path}")
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, paths in WRAPPED.items():
            for path in paths:
                self._replace(module_name, path, self._spanning)
        for module_name, paths in COUNTED.items():
            for path in paths:
                self._replace(module_name, path, self._counting)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        """Spans as CSV: id, parent, run, name, start_s, end_s (relative to the first span)."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,name,start_s,end_s\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.parent[i]},{self.runs[self.run[i]]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
