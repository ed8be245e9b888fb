"""One fresh process: set up a workload, time its driver call, check the output.

run.py starts this once per sample and reads the JSON record it prints as
its last line:

    python3 perfbench/worker.py --workload W --seed N --out DIR
                                --spawned-ns T [--trace] [--setup-only]

`--spawned-ns` is the parent's CLOCK_MONOTONIC reading just before the
process was started, so set-up time includes interpreter start and imports.
With `--setup-only` the process stops where the driver call would begin.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covpress
    import numpy

    if Path(covpress.__file__).resolve().parent.parent != src:
        print(f"covpress imported from {covpress.__file__}, not from {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    call = workloads.prepare(args.workload, args.seed, args.out)
    rec = None
    if args.trace:  # after set-up, so that only the driver call records spans
        rec = spans.Recorder()
        spans.instrument(rec)

    start_ns = time.monotonic_ns()
    record = {"setup_s": (start_ns - args.spawned_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    cpu0 = time.process_time()
    if rec is None:
        outcome = call()
    else:
        with rec.span(spans.DRIVER_SPAN):
            outcome = call()
    record["wall_s"] = (time.monotonic_ns() - start_ns) / 1e9
    record["cpu_s"] = time.process_time() - cpu0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks, report = workloads.check(args.workload, args.seed, outcome)
    record.update(report)
    record["checks_attempted"] = checks.attempted
    record["check_failures"] = checks.failures
    record["numpy"] = numpy.__version__
    if rec is not None:
        spans_path = args.out / "spans.jsonl"
        rec.write(spans_path)
        record["spans"] = str(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
