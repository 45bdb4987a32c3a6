"""Closed-loop measurement shared by the workloads.

One driver thread runs one op at a time until the run's seconds are
spent, like a render loop where frame N+1 starts after frame N.  Each
op's output is checked outside its timed region; an op that raises or
fails its check is counted, never raised.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Machine speed here drifts on a scale of seconds, so set-up is sampled
# all through the run, like the ops, not in one burst before it.
SETUP_EVERY = 1.0  # s between set-up samples
MIN_TAIL = 10  # samples a run must have beyond its p90


def _declared(key: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")


def use_checkout_sources() -> None:
    """Import eqsim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "eqsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eqsim sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _git_sha() -> str:
    # the benchmark may run in an export without .git: look no further up
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "transport": "in-process only: LOCAL_PIPE connections and the seeded SimTransport; no real link",
        "loop": "closed loop, one driver thread, one op in flight",
        "not_measured": json.loads((HERE / "interactions.json").read_text())["not_measured"],
    }


def _tail_percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return max(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """Result of one measured run of one workload."""

    def __init__(self):
        self.op_ids: list[int] = []
        self.latencies: list[float] = []   # s, every attempted measured op
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0  # measured ops that passed their check
        self.errors: list[str] = []
        self.op_wall = 0.0
        self.op_cpu = 0.0
        self.setup_times: list[float] = []
        self.counts_per_op: dict = {}
        self.counted_ops = 0
        self.peak_rss_mb = 0.0


def _attempt(workload, run: Run, i: int) -> tuple[float, float, bool]:
    """Run op i and check it; returns (wall s, cpu s, ok)."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        workload.op(i)
        ok = True
    except Exception:
        ok = False
        run.errors.append(traceback.format_exc(limit=4))
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    run.attempted += 1
    if ok:
        try:
            ok = workload.check(i)
        except Exception:
            ok = False
            run.errors.append(traceback.format_exc(limit=4))
    if not ok:
        run.failed += 1
    return t1 - t0, cpu1 - cpu0, ok


def _time_setup(workload, run: Run, trace: bool) -> None:
    spans = workload.spans
    spans.enabled = trace
    spans.op = f"setup{len(run.setup_times)}"
    t0 = time.perf_counter()
    workload.setup()
    run.setup_times.append(time.perf_counter() - t0)
    spans.enabled = False


def measure(workload, spare, seconds: float, trace: bool) -> Run:
    """Set up, warm up, then run ops closed-loop for `seconds`.

    `spare` is a second instance of the workload, sharing its span
    recorder; it is set up and torn down once every SETUP_EVERY seconds
    of the loop, between ops, and each of those set-ups is timed too.
    """
    run = Run()
    spans = workload.spans
    _time_setup(workload, run, trace)
    try:
        workload.prepare()
        for i in range(workload.WARMUP_OPS):
            _attempt(workload, run, i)
        first = workload.WARMUP_OPS
        start_counts = workload.counts()
        deadline = time.perf_counter() + seconds
        next_setup = 0.0
        i = first
        while (now := time.perf_counter()) < deadline:
            if now >= next_setup:
                try:
                    _time_setup(spare, run, trace)
                finally:
                    spare.teardown()
                next_setup = now + SETUP_EVERY
            traced = trace and i % 2 == 1
            spans.enabled = traced
            spans.op = i
            wall, cpu, ok = _attempt(workload, run, i)
            spans.enabled = False
            run.completed += ok
            run.op_ids.append(i)
            run.latencies.append(wall)
            run.traced.append(traced)
            run.op_wall += wall
            run.op_cpu += cpu
            i += 1
            if i - first == workload.COUNT_OPS:
                _take_counts(run, workload, start_counts, workload.COUNT_OPS)
        if not run.counted_ops and i > first:
            _take_counts(run, workload, start_counts, i - first)
    finally:
        workload.teardown()
    return run


def _take_counts(run: Run, workload, start: dict, n: int) -> None:
    end = workload.counts()
    run.counts_per_op = {k: (end[k] - start[k]) / n for k in end}
    run.counted_ops = n
    # a high-water mark: taken after the fixed prefix, it does not grow
    # with the number of ops a faster or slower program completes
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> dict:
    lat_ms = [x * 1e3 for x in run.latencies]
    return {
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": _tail_percentile(lat_ms, 90),
        "ops_per_s": run.completed / run.op_wall if run.op_wall else 0.0,
        "cpu_ms_per_op": run.op_cpu * 1e3 / len(lat_ms),
        "wire_bytes_per_op": run.counts_per_op.get("wire_bytes", 0.0),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": run.peak_rss_mb,
    }


def trace_overhead_ms(run: Run, kind) -> float:
    """Traced minus untraced median op time, from the traced run.

    Ops are split by `kind(op id)` first, so that a mix of op kinds with
    very different costs (frame modes) compares like with like; the
    result is the mean of the per-kind differences.
    """
    groups: dict = {}
    for i, x, t in zip(run.op_ids, run.latencies, run.traced):
        groups.setdefault(kind(i), ([], []))[t].append(x)
    diffs = [
        statistics.median(on) - statistics.median(off) for off, on in groups.values() if on and off
    ]
    return statistics.fmean(diffs) * 1e3 if diffs else 0.0


def per_layer(run: Run, workload) -> dict:
    per_op = workload.spans.self_times()
    traced = [i for i, t in zip(run.op_ids, run.traced) if t]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(workload.layer_metrics(per_op, traced, run))
    values["trace.overhead_ms"] = trace_overhead_ms(run, workload.kind)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"unregistered per-layer metrics {sorted(unknown)}")
    return values


def report(workload, run: Run, seed: int, trace: bool, write_files: bool = True) -> dict:
    """Print the human-readable summary and the final result line."""
    e2e = end_to_end(run)
    names, units = (PER_LAYER, PER_LAYER) if trace else (END_TO_END, END_TO_END)
    metrics = per_layer(run, workload) if trace else e2e
    failed_ratio = run.failed / run.attempted if run.attempted else 1.0
    n = len(run.latencies)
    p90 = e2e["op_ms_p90"]
    beyond_p90 = sum(1 for x in run.latencies if x * 1e3 > p90)
    meta = {
        "workload": workload.name,
        "trace": trace,
        **environment(seed),
        "samples": n,
        "samples_beyond_p90": beyond_p90,
        "warmup_ops": workload.WARMUP_OPS,
        "counted_ops": run.counted_ops,
        "setup_samples": len(run.setup_times),
        "failed_ratio": failed_ratio,
    }
    if beyond_p90 < MIN_TAIL:
        print(f"perfbench: only {beyond_p90} samples beyond p90 (need {MIN_TAIL})", file=sys.stderr)
    for err in run.errors[:3]:
        print(f"perfbench: op failed:\n{err}", file=sys.stderr)

    for name in names:
        print(f"{name:34s} {metrics[name]:14.6g} {units[name]}")
    print(f"{'failed_ratio':34s} {failed_ratio:14.6g} ratio ({run.failed}/{run.attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))

    if write_files:
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
        key = "per_layer" if trace else "end_to_end"
        record = {"meta": meta, key: metrics, "counts_per_op": run.counts_per_op}
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if trace:
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
            spans_path.write_text(json.dumps(workload.spans.to_json()))

    result = {
        "correct": run.failed == 0 and beyond_p90 >= MIN_TAIL,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return result
