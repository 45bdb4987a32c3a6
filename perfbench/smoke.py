"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For each workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and none reads 0, and a traced run
every per-layer metric, with no failed op; that two runs with one seed
repeat every count exactly; and that a deliberately broken reference or
replica makes the output check fail ops.  Across the three traced runs,
every per-layer metric must be measured (nonzero) by some workload.
Exits 1 at the first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import harness
from spans import SpanRecorder

TINY = {
    "frame": {"resolution": (160, 90)},
    "objects": {"blob_size": 16 << 10},
    "rsp": {"message_size": 4 << 10},
}
SECONDS = 1.0
# counts that must repeat exactly for one seed
DETERMINISTIC = ("wire_bytes", "virtual_ms", "datagrams", "data_sent", "retransmitted")


def run_once(workload, trace: bool):
    from run import make_workload

    spare = make_workload(workload.name, 7, workload.spans, **TINY[workload.name])
    run = harness.measure(workload, spare, SECONDS, trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = harness.report(workload, run, seed=0, trace=trace, write_files=False)
    last = out.getvalue().strip().splitlines()[-1]
    if json.loads(last) != result:
        raise AssertionError("the last line of output is not the result")
    return run, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def smoke(name: str) -> set:
    """Checks one workload; returns the per-layer metrics it measured."""
    from run import make_workload

    for trace, declared in ((False, harness.END_TO_END), (True, harness.PER_LAYER)):
        wl = make_workload(name, 7, SpanRecorder(), **TINY[name])
        run, result = run_once(wl, trace)
        expect(
            result["failed"] == 0 and result["correct"],
            f"{name}: ops failed or too few samples beyond p90\n{run.errors[:1]}",
        )
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == declared, f"{name} trace={trace}: metrics {got} != declared {declared}")
        expect(run.counted_ops == wl.COUNT_OPS, f"{name}: only {run.counted_ops} ops counted")
        if not trace:
            zero = [k for k, v in result["metrics"].items() if not v["value"]]
            expect(not zero, f"{name}: end-to-end metrics read 0: {zero}")
    measured = {k for k, v in result["metrics"].items() if v["value"]}

    counts = []
    for _ in range(2):
        run, _ = run_once(make_workload(name, 11, SpanRecorder(), **TINY[name]), False)
        counts.append({k: v for k, v in run.counts_per_op.items() if k in DETERMINISTIC})
    expect(counts[0] == counts[1], f"{name}: counts differ between runs of one seed: {counts}")

    broken = make_workload(name, 7, SpanRecorder(), **TINY[name])
    corrupt(broken)
    run, result = run_once(broken, False)
    expect(result["failed"] > 0, f"{name}: a corrupted reference failed no op")
    return measured


def corrupt(wl) -> None:
    """Break the benchmark side of one workload's output check."""
    if wl.name == "frame":
        prepare = wl.prepare

        def prepare_then_corrupt():
            prepare()
            ref = wl.references[("db", 0)]
            wl.references[("db", 0)] = bytes([ref[0] ^ 1]) + ref[1:]

        wl.prepare = prepare_then_corrupt
    elif wl.name == "rsp":
        wl.expected[0] = bytes([wl.expected[0][0] ^ 1]) + wl.expected[0][1:]
    else:
        op = wl.op

        def op_then_corrupt(i):
            op(i)
            wl.replicas[0][0].counter += 1

        wl.op = op_then_corrupt


def main() -> int:
    harness.use_checkout_sources()
    measured = set()
    try:
        for name in ("frame", "objects", "rsp"):
            measured |= smoke(name)
            print(f"ok   {name}")
        missing = sorted(set(harness.PER_LAYER) - measured)
        expect(not missing, f"no traced run measured {missing}")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
