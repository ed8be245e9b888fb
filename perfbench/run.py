"""covpress benchmark: time the doubling, leakage and torus2d workloads.

    python3 perfbench/run.py [--workload doubling|leakage|torus2d|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Every sample is one fresh worker process (worker.py), and samples run one
after another until `--seconds` is spent.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` the workers record spans and the object holds the per-layer
metrics.  Each run writes a full report, with the environment, every sample
and the CSV digests, to perfbench/out/.  The exit code is 1 when a
correctness check fails and 2 when the benchmark cannot run at all.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

WORKLOADS = ("doubling", "leakage", "torus2d")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 170
# No BLAS thread pools: the drivers' own <= 2-worker pool is the only one.
# No bytecode files: every worker compiles the same sources, whatever the
# caller's environment, and nothing is written under src/.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}

def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_share", "_ratio")) else "count"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, out: Path, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_rev() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "git_rev": git_rev(), "src_lines": src_lines, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one run, then its metrics, checks and report."""
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    started = time.monotonic()
    spawn(workload, seed, out, setup_only=True)  # warm-up: fills the file cache
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        missing = not plain or (trace and not traced)
        if not missing and time.monotonic() - started + statistics.median(durations) > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        # Set-up-only processes spread over the run steady the setup_s median.
        setups.append(spawn(workload, seed, out, setup_only=True)["setup_s"])
        sample = spawn(workload, seed, out, trace=use_trace)
        durations.append(time.monotonic() - t0)
        if use_trace:
            sample["layers"] = spans.layer_metrics(*spans.read_spans(sample.pop("spans")))
        (traced if use_trace else plain).append(sample)

    samples = plain + traced
    failures = [f for s in samples for f in s["check_failures"]]
    attempted = sum(s["checks_attempted"] for s in samples)
    digests = sorted({s["csv_sha256"] for s in samples})
    attempted += len(samples) - 1
    if len(digests) > 1:
        failures.append(f"CSV digest differs between samples: {digests}")
    if trace:
        attempted += 1
        failures += spans.check_self_time()

    def med(key, group=plain):
        return statistics.median(s[key] for s in group)

    if trace:
        # median_low keeps counts whole: it always returns one sample's value.
        metrics = {name: statistics.median_low(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s")
    else:
        metrics = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "setup_s": statistics.median(setups + [s["setup_s"] for s in plain]),
            "peak_rss_mb": med("peak_rss_mb"),
            "exact_share": statistics.median(s["exact_rows"] / max(s["rows"], 1) for s in plain),
            "passed_share": 1.0 - len(failures) / attempted,
        }
    report = {
        "workload": workload,
        "trace": trace,
        "environment": {**environment(seed), "numpy": samples[0]["numpy"]},
        "csv_sha256": digests,
        "elapsed_s": time.monotonic() - started,
        "setup_only_s": setups,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covpress" / "__init__.py").is_file():
        print(f"error: no covpress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rep in reports:
        env = rep["environment"]
        print(f"{rep['workload']}: {len(rep['samples'])} samples in {rep['elapsed_s']:.1f} s, "
              f"csv sha256 {', '.join(d[:16] for d in rep['csv_sha256'])}, "
              f"git {env['git_rev'][:12]}, src {env['src_lines']} lines, nproc {env['nproc']}, "
              f"{env['cpu_model']}, python {env['python']}, numpy {env['numpy']}")
        for name, value in rep["metrics"].items():
            print(f"  {name:<48} {value:>14.6g} {unit(name)}")
        for failure in rep["failures"][:20]:
            print(f"  FAILED CHECK: {failure}")
    failed = sum(len(r["failures"]) for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    if len(reports) == 1:
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in reports[0]["metrics"].items()},
        }
        print(json.dumps(result))
    else:
        print(f"{attempted} checks, {failed} failed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
