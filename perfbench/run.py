"""vfair benchmark: one workload through `vfair train` and `vfair rank`.

    python3 perfbench/run.py --workload readme_small --seed 0 --seconds 50 --trace 0

Run it from the checkout root; it imports vfair from `src/` there.  With
--trace 0 it prints every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric, one `name = value unit` line each,
then a `manifest` line and, last, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
It exits 1 when any operation or output check failed and 2 when the
checkout holds no vfair sources.  Inputs, outputs and spans stay under
`.perfbench_work/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The models are small enough that BLAS threads only add noise.  Set before
# numpy loads, here and in every child process.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)
sys.dont_write_bytecode = True  # keep generated files out of perfbench/

import hostspeed  # noqa: E402  (after the two settings above)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 40
SESSION_TIMEOUT_S = 130


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, timeout) -> tuple[str, str]:
    """(stdout, problem) of a child Python process; problem is '' on success."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "", f"{argv[0]} timed out after {timeout} s"
    if proc.returncode != 0:
        return proc.stdout, f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return proc.stdout, ""


def in_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT / "src")


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "vfair").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe(prep, with_csv: bool, problems: list) -> dict | None:
    stdout, problem = run_child(
        [str(HERE / "probe.py"), str(prep.config_path), "1" if with_csv else "0"], PROBE_TIMEOUT_S
    )
    if problem:
        problems.append(problem)
        return None
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"probe printed no result: {stdout[-500:]!r}")
        return None
    if not in_checkout(out["vfair_file"]):
        problems.append(f"probe imported vfair from {out['vfair_file']}, not from the checkout")
    if out["rows"] != prep.n_rows:
        problems.append(f"the program kept {out['rows']} rows, expected {prep.n_rows}")
    return out


def probes(prep, n: int, with_csv: bool, problems: list) -> list:
    """`n` set-up probes one after another.  Each result also holds its
    set-up time adjusted by the host speed sampled before and after it."""
    results = []
    before = hostspeed.sample()
    for _ in range(n):
        out = probe(prep, with_csv, problems)
        after = hostspeed.sample()
        if out is not None:
            out["setup_adj_s"] = hostspeed.adjusted(out["setup_s"], before, after)
        results.append(out)
        before = after
    return results


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(prep, setup, session) -> tuple[dict, dict]:
    """(metric values, human-readable notes) of an untraced run."""
    setup_s = [p["setup_adj_s"] for p in setup]
    train_s = statistics.median(session["train_adj_s"])
    values = {
        "setup_s": statistics.median(setup_s),
        "train_s": train_s,
        "train_examples_per_s": prep.examples / train_s,
        "rank_s": statistics.median(session["rank_adj_s"]),
        "peak_rss_mb": session["peak_rss_mb"],
        "var_ratio": session["var_ratio"],
        "harm_ratio": session["harm_ratio"],
    }
    adj = "adjusted to the reference host speed"
    notes = {
        "setup_s": f"median, {adj}, {spread(setup_s)} fresh processes; "
                   f"wall {spread([p['setup_s'] for p in setup])}",
        "train_s": f"median, {adj}, {spread(session['train_adj_s'])}; wall {spread(session['train_s'])}",
        "train_examples_per_s": f"{prep.examples} examples / train_s",
        "rank_s": f"median, {adj}, {spread(session['rank_adj_s'])}; wall {spread(session['rank_s'])}",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "var_ratio": f"vfair_std / erm test-loss VAR, mean over seeds {prep.seeds}",
        "harm_ratio": "vfair_std / erm test MSE",
    }
    return values, notes


def per_layer(prep, setup, session) -> tuple[dict, dict]:
    """(metric values, human-readable notes) of a traced run."""
    values = {k: v for k, v in session.items() if "." in k and not k.startswith("_")}
    notes = {}
    for name, t in session["_timings"].items():
        values[name] = t["median"]
        notes[name] = f"median of {t['n']} calls"
        if "tail" in t:
            values[f"{name}.tail"] = t["tail"]
            notes[f"{name}.tail"] = f"p{t['tail_pct']:g} of {t['n']} calls"
    p = setup[0]
    values["cli.import_s"] = p["import_s"]
    values["data.build_datasets_s"] = p["build_datasets_s"]
    values["data.load_csv_s"] = p["load_csv_s"]
    values["data.csv_rows_per_s"] = p["csv_rows"] / p["load_csv_s"]
    values["harness.record_bytes"] = session["record_bytes"]
    values["harness.snapshot_bytes"] = session["snapshot_bytes"]
    notes["cli.import_s"] = notes["data.build_datasets_s"] = "one set-up probe"
    notes["data.load_csv_s"] = f"{p['csv_rows']} rows of the data written as CSV (not part of set-up)"
    notes["data.csv_rows_per_s"] = "rows / data.load_csv_s"
    notes["trace.overhead_ratio"] = "traced / untraced train_s"
    steps = session["_steps"]
    notes["data.take_batch_calls_per_step"] = f"over {sum(steps.values())} steps"
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vfair" / "__init__.py").is_file():
        print(f"error: no vfair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.chdir(ROOT)
    workdir = Path(".perfbench_work") / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prep = workloads.prepare(args.workload, workdir)

    problems = []  # one entry per failed operation
    setup = probes(prep, 1 if args.trace else SETUP_PROBES, bool(args.trace), problems)
    attempted = len(setup)
    setup = [p for p in setup if p is not None]

    result_path = workdir / "session.json"
    _, problem = run_child([
        str(HERE / "session.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ], SESSION_TIMEOUT_S)
    session = {} if problem else json.loads(result_path.read_text(encoding="utf-8"))
    if problem:
        attempted += 1
        problems.append(problem)
    elif not in_checkout(session["vfair_file"]):
        problems.append(f"session imported vfair from {session['vfair_file']}")
    attempted += session.get("attempted", 0)
    problems += session.get("failures", [])

    values, notes = {}, {}
    if setup and session.get("_timings" if args.trace else "train_s"):
        values, notes = (per_layer if args.trace else end_to_end)(prep, setup, session)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {v:.6g} {m['unit']} "
              f"({m['better']} is better; {notes.get(m['name'], 'traced run')})")
    if session.get("_missing_wrapped"):
        print(f"{args.workload} not traced (absent from the package): {session['_missing_wrapped']}")
    attempted += 1  # the result itself: every metric measured and finite
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    failed = len(problems)
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted operations)")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "versions": session.get("versions"), "blas": session.get("blas"),
        "pinned_threads": PINNED_THREADS, "git_commit": git_commit(),
        "src_sha256": source_digest(), "records_sha256": session.get("records_sha256"),
        "config": prep.config,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    (workdir / "result.json").write_text(json.dumps(
        {"manifest": manifest, "metrics": metrics, "session": session, "setup": setup,
         "problems": problems}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
