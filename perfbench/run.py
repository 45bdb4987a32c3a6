"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload frame --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Lines before it
give every metric by name and unit, `failed_ratio`, and a `meta` record
(seed, git sha, nproc, Python and numpy versions).  The same record is
written under perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import sys

import harness
from spans import SpanRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("frame", "objects", "rsp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.use_checkout_sources()
    spans = SpanRecorder()
    workload = make_workload(args.workload, args.seed, spans)
    spare = make_workload(args.workload, args.seed, spans)
    run = harness.measure(workload, spare, args.seconds, bool(args.trace))
    harness.report(workload, run, args.seed, bool(args.trace))
    return 0


def make_workload(name: str, seed: int, spans: SpanRecorder, **size):
    if name == "frame":
        from workload_frame import FrameWorkload as cls
    elif name == "objects":
        from workload_objects import ObjectsWorkload as cls
    else:
        from workload_rsp import RspWorkload as cls
    return cls(seed, spans, **size)


if __name__ == "__main__":
    sys.exit(main())
