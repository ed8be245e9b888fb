"""The three benchmark workloads: inputs, the timed driver call, and checks.

`prepare` does everything a workload needs before its driver is called and
returns that call; `check` judges what the call produced.  `doubling` and
`leakage` run the covpress CLI at its default config.  `torus2d` builds the
two-symbol full shift on small tori from the public `FiniteSystem` and runs
the library's pressure and entropy functions on it; `fullshift` only
supplies the closed-form answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Layer functions are called through their modules so that the traced run's
# wrappers, installed after this import, see the calls.
from covpress import cli, experiments, measpressure, toppressure
from covpress.config import load_config
from covpress.coveralg import SetFamily
from covpress.dynsys import FiniteSystem, Potential
from covpress.experiments import ResultRow
from covpress.fullshift import FullShiftSpec, exact_pressure
from covpress.measpressure import FiniteMeasure
from covpress.solvers import STATUS_EXACT

CLI_WORKLOADS = {"doubling": (112, 1), "leakage": (48, 3)}  # expected rows, verdicts

# torus2d geometry: part (a) and (c) on the 4x4 torus, part (b) on the 3x3.
PERIOD_A = (4, 4)
PERIOD_B = (3, 3)
BOXES_A = tuple((a, b) for a in range(1, PERIOD_A[0] + 1) for b in range(1, PERIOD_A[1] + 1))
BOXES_B = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
ENTROPY_DEPTH = 4
# The drivers' own join budget; 2**16 window patterns fill it at box (4, 4).
MEMBER_BUDGET = 65536
TORUS_ROWS = 4 * len(BOXES_A) + 4 * len(BOXES_B) + ENTROPY_DEPTH

REL_TOL = 1e-9
QUADRUPLE = ("Q", "P", "S", "G")


@dataclass
class Outcome:
    """What one timed driver call left behind."""

    exit_code: int
    stdout: str
    csv_text: str


def torus_shift(period: tuple[int, int]) -> FiniteSystem:
    """Two-symbol configurations on a p x q torus under the two unit shifts.

    State x encodes the configuration with bit i*q + j holding the symbol at
    (i, j); generator 0 moves the window one row, generator 1 one column.
    """
    p, q = period
    x = np.arange(1 << (p * q), dtype=np.int64)

    def shifted(di: int, dj: int) -> np.ndarray:
        out = np.zeros_like(x)
        for i in range(p):
            for j in range(q):
                symbol = (x >> (((i + di) % p) * q + (j + dj) % q)) & 1
                out |= symbol << (i * q + j)
        return out

    return FiniteSystem(generators=(shifted(1, 0), shifted(0, 1)))


def site_potential(seed: int) -> tuple[float, float]:
    """phi = (0, u) with u drawn uniformly from [-1, 1]."""
    u = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
    return (0.0, u)


def _torus_inputs(seed: int):
    phi = site_potential(seed)
    big, small = torus_shift(PERIOD_A), torus_shift(PERIOD_B)
    xa = np.arange(big.state_count)
    xb = np.arange(small.state_count)
    origin = SetFamily.from_labels(xa & 1)
    s00, s01 = xb & 1, (xb >> 1) & 1
    overlap = SetFamily.from_state_sets(
        small.state_count,
        [np.flatnonzero(s00 == 0).tolist(), np.flatnonzero(s00 == 1).tolist(),
         np.flatnonzero(s00 == s01).tolist()],
    )
    uniform = FiniteMeasure(np.full(big.state_count, 1.0 / big.state_count))
    return (
        (big, Potential(np.asarray(phi)[xa & 1]), origin, uniform),
        (small, Potential(np.asarray(phi)[s00]), overlap),
    )


def _row(cover: str, mode: str, sample) -> ResultRow:
    return ResultRow("torus2d", cover, mode, sample.n, sample.lam, sample.raw_value,
                     sample.rate, None, sample.status)


def prepare(workload: str, seed: int, out_dir: Path) -> Callable[[], Outcome]:
    """Build the workload's inputs; return the call that the benchmark times."""
    if workload in CLI_WORKLOADS:
        load_config(workload)  # a bad default config fails here, during set-up
        argv = [workload, "--out", str(out_dir), "--seed", str(seed)]
        csv_path = out_dir / f"{workload}.csv"
        csv_path.unlink(missing_ok=True)  # a failed run must not pass on stale output

        def run_cli() -> Outcome:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
            return Outcome(code, buf.getvalue(), text)

        return run_cli
    if workload != "torus2d":
        raise ValueError(f"unknown workload {workload!r}")
    (big, f_big, origin, uniform), (small, f_small, overlap) = _torus_inputs(seed)
    csv_path = out_dir / "torus2d.csv"

    def run_torus() -> Outcome:
        rows = []
        for n in BOXES_A:
            quad = toppressure.pressure_quadruple(
                big, f_big, origin, n, member_budget=MEMBER_BUDGET
            )
            rows += [_row("origin4x4", mode, quad[mode]) for mode in QUADRUPLE]
        for n in BOXES_B:
            quad = toppressure.pressure_quadruple(
                small, f_small, overlap, n, member_budget=MEMBER_BUDGET
            )
            rows += [_row("overlap3x3", mode, quad[mode]) for mode in QUADRUPLE]
        est = measpressure.entropy_rate(uniform, big, origin, ENTROPY_DEPTH)
        rows += [_row("origin4x4", "Hrate", s) for s in est.samples]
        text = experiments.rows_to_csv(rows)
        csv_path.write_text(text, encoding="utf-8", newline="")
        return Outcome(0, "", text)

    return run_torus


# -- checks ---------------------------------------------------------------------


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def parse_rows(csv_text: str) -> list[dict]:
    lines = csv_text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _log_value(row: dict) -> float:
    return float(row["rate"]) * int(row["lambda_n"])


def _by_box(rows: list[dict], cover: str) -> dict[str, dict[str, dict]]:
    boxes: dict[str, dict[str, dict]] = {}
    for r in rows:
        if r["cover"] == cover and r["mode"] in QUADRUPLE:
            boxes.setdefault(r["n"], {})[r["mode"]] = r
    return boxes


def _chain(checks: Checks, box: str, quad: dict, pairs, exact_only=()) -> None:
    """a <= b in raw value, i.e. log a <= log b + log(1 + REL_TOL)."""
    for lo, hi in pairs:
        if lo not in quad or hi not in quad:
            checks.expect(False, f"{box}: no {lo} or {hi} row")
            continue
        a, b = quad[lo], quad[hi]
        if (lo, hi) in exact_only and not (
            a["solver_status"] == STATUS_EXACT and b["solver_status"] == STATUS_EXACT
        ):
            continue
        checks.expect(
            _log_value(a) <= _log_value(b) + math.log1p(REL_TOL),
            f"{box}: {lo} {_log_value(a)!r} > {hi} {_log_value(b)!r}",
        )


FULL_CHAIN = (("Q", "G"), ("G", "S"), ("S", "P"))


def check(workload: str, seed: int, outcome: Outcome) -> tuple[Checks, dict]:
    """Correctness checks on one run's outputs, plus what the report records."""
    checks = Checks()
    rows = parse_rows(outcome.csv_text)
    report = {
        "csv_sha256": hashlib.sha256(outcome.csv_text.encode("utf-8")).hexdigest(),
        "rows": len(rows),
        "exact_rows": sum(r["solver_status"] == STATUS_EXACT for r in rows),
    }
    if workload in CLI_WORKLOADS:
        want_rows, want_verdicts = CLI_WORKLOADS[workload]
        checks.expect(outcome.exit_code == 0, f"CLI exit code {outcome.exit_code}")
        verdicts = re.findall(r"^VERDICT (\S+): (PASS|FAIL)", outcome.stdout, re.M)
        checks.expect(len(verdicts) == want_verdicts, f"{len(verdicts)} verdicts")
        for name, status in verdicts:
            checks.expect(status == "PASS", f"verdict {name} {status}")
        checks.expect(len(rows) == want_rows, f"{len(rows)} rows, expected {want_rows}")
        if workload == "doubling":
            for cover in ("arcs", "arcs_bfe"):
                for box, quad in _by_box(rows, cover).items():
                    _chain(checks, f"{cover} {box}", quad, FULL_CHAIN)
        return checks, report

    checks.expect(len(rows) == TORUS_ROWS, f"{len(rows)} rows, expected {TORUS_ROWS}")
    oracle = exact_pressure(FullShiftSpec(2, 2, site_potential(seed)))
    for box, quad in _by_box(rows, "origin4x4").items():
        for mode in QUADRUPLE:
            rate = float(quad[mode]["rate"]) if mode in quad else math.nan
            checks.expect(abs(rate - oracle) <= REL_TOL,
                          f"origin4x4 {box} {mode} rate {rate!r} != oracle {oracle!r}")
        _chain(checks, f"origin4x4 {box}", quad, FULL_CHAIN)
    fallback = []
    for box, quad in _by_box(rows, "overlap3x3").items():
        # Q <= G fails for overlapping covers, so only these three are checked.
        _chain(checks, f"overlap3x3 {box}", quad, (("S", "P"), ("Q", "P"), ("G", "S")),
               exact_only=(("Q", "P"), ("G", "S")))
        if all(quad[m]["solver_status"] != STATUS_EXACT for m in ("G", "S") if m in quad):
            fallback.append(box)
    for r in rows:
        if r["mode"] == "Hrate":
            checks.expect(abs(float(r["rate"]) - math.log(2.0)) <= REL_TOL,
                          f"uniform entropy rate at {r['n']}: {r['rate']} != log 2")
    report["phi"] = list(site_potential(seed))
    report["greedy_fallback_boxes"] = fallback
    return checks, report
