"""Experiment drivers behind the CLI: reproducible sweeps, CSV rows, verdicts.

Each experiment has a row builder, `run_<name>(cfg)` in RUNNERS, and a
judge, `judge_<name>(cfg, rows)` in JUDGES, that reads only the config and
the rows.  So a written CSV can be judged again: parse its lines with
`ResultRow.from_csv` and hand them to the judge.  Rows are deterministic
for a fixed config (same seeds, same tie-breaking, same float formatting)
so reruns produce byte-identical CSVs.

Rates are read along the diagonal boxes, and each cover is swept once:
`box_sweep` extends the join and the ergodic-sum field by one shell of box
points per depth, and every value at that depth is computed from that one
join.  The euclidean separated counts of all depths come from one pass as
well: a grid of time-0 buckets proposes candidate pairs, the exact distance
test at time 0 filters them, the full-depth test decides the rest, and a
greedy over per-cell depth bitmasks counts every depth at once; memory
stays O(cells x depth).  The disk grid, the pizza cover and the annulus
partition are built from arrays, not per-cell loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from covpress.config import ExperimentConfig
from covpress.coveralg import (
    DEFAULT_LAMBDA_BUDGET,
    CoverBudgetError,
    SetFamily,
    bool_rows,
    box_sweep,
    classify_admissible,
    join,
    membership_partition,
    potential_cover,
)
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_doubling,
    birkhoff_field,
    cycle_structure,
    make_circle_doubling,
    make_disk_system,
    make_full_shift_torus,
)
from covpress.fullshift import exact_pressure, gibbs_optimizer
from covpress.lattice import box_cardinality, decompose
from covpress.measpressure import FiniteMeasure, measure_pressure, partition_entropy
from covpress.solvers import STATUS_EXACT, STATUS_GREEDY_LOWER
from covpress.toppressure import PressureSample, quadruple_from_joined

CSV_HEADER = "experiment,cover,mode,n,lambda_n,raw_value,rate,bound,solver_status"


def __getattr__(name: str):
    # Imported on first read: only perfbench's traced workers use it, to subclass
    # it, and no run starts a pool.  Delete once perfbench drops `TracedPool` (ROADMAP item 1).
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    cover: str
    mode: str  # Q | P | S | G | Hrate | count
    n: tuple[int, ...]
    lam: int
    raw_value: float
    rate: float
    bound: float | None
    solver_status: str

    def to_csv(self) -> str:
        bound = "" if self.bound is None else repr(self.bound)
        n_text = "-".join(str(c) for c in self.n)
        return (
            f"{self.experiment},{self.cover},{self.mode},{n_text},{self.lam},"
            f"{repr(self.raw_value)},{repr(self.rate)},{bound},{self.solver_status}"
        )

    @classmethod
    def from_csv(cls, line: str) -> ResultRow:
        """The row whose `to_csv` is `line`."""
        experiment, cover, mode, n, lam, raw_value, rate, bound, status = line.split(",")
        return cls(
            experiment, cover, mode, tuple(int(c) for c in n.split("-")), int(lam),
            float(raw_value), float(rate), float(bound) if bound else None, status,
        )


@dataclass(frozen=True)
class VerdictItem:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        """The verdict as the CLI prints it."""
        return f"VERDICT {self.name}: {'PASS' if self.passed else 'FAIL'} - {self.detail}"


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv() for r in rows)]) + "\n"


def _sample_row(
    experiment: str,
    cover: str,
    mode: str,
    sample: PressureSample,
    bound: float | None = None,
) -> ResultRow:
    return ResultRow(
        experiment=experiment,
        cover=cover,
        mode=mode,
        n=sample.n,
        lam=sample.lam,
        raw_value=sample.raw_value,
        rate=sample.rate,
        bound=bound,
        solver_status=sample.status,
    )


def _count_row(experiment, cover, mode, n, count, status=STATUS_EXACT, bound=None):
    lam = box_cardinality(n)
    return ResultRow(
        experiment=experiment,
        cover=cover,
        mode=mode,
        n=n,
        lam=lam,
        raw_value=float(count),
        rate=math.log(count) / lam,
        bound=bound,
        solver_status=status,
    )


# -- doubling --------------------------------------------------------------


def run_doubling(cfg: ExperimentConfig) -> list[ResultRow]:
    """Rates of all four quantities for the half-circle cover of the doubling map.

    A potential constant on each arc, as the `constant` and `arc` ones are,
    has a level cover whose members are unions of arcs, so `arcs_bfe` is
    `arcs` itself: no level cover is built, and its rows are copies of the
    arc rows.  Any other potential's level cover is joined onto the arcs
    and swept on its own.  A sweep that passes a budget stops there; one
    that cannot write a single arc depth raises the budget error.
    """
    sys = make_circle_doubling(cfg.m)
    arcs, f, eps = cfg.doubling_inputs()
    arcs_bfe = arcs if eps is None else join(arcs, potential_cover(sys, f, eps))
    rows: list[ResultRow] = []
    for name, family in [("arcs", arcs), ("arcs_bfe", arcs_bfe)]:
        if family is arcs and name == "arcs_bfe":
            rows += [replace(row, cover=name) for row in rows]
            continue
        # Each depth's rows are built as soon as it is evaluated, so no
        # sample, nor the join a flat partition's sample holds, outlives it.
        p_best = math.inf
        try:
            for n, joined, f_field in box_sweep(
                sys, family, f, (cfg.n_max,), member_budget=cfg.member_budget
            ):
                quad = quadruple_from_joined(joined, f_field, n)
                for mode in "QPSG":
                    bound = None
                    if mode == "P" and quad["P"].status == STATUS_EXACT:
                        p_best = bound = min(p_best, quad["P"].rate)
                    rows.append(_sample_row("doubling", name, mode, quad[mode], bound=bound))
        except CoverBudgetError:
            if not rows:  # no arc depth fits: nothing to judge, say which budget
                raise
    return rows


def judge_doubling(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> list[VerdictItem]:
    """The last arc Q rate against its closed form.  With an arc potential
    of height a, the itinerary cells carry weight e^(a * ones-in-word), so
    the value telescopes to the binomial sum (1 + e^a)^depth and the
    limiting rate is log(1 + e^a); a constant potential just shifts the
    zero-potential rate log 2.  A cover whose rows stop short of `n_max` is
    named with the budget that its next box passes.
    """
    arc_q = [r for r in rows if r.cover == "arcs" and r.mode == "Q"]
    if not arc_q:
        return [VerdictItem("doubling-rate", False, "missing: every arcs Q row")]
    steps = [(a.rate, b.rate) for a, b in zip(arc_q, arc_q[1:])]
    monotone = all(b >= a - 1e-9 for a, b in steps) or all(b <= a + 1e-9 for a, b in steps)
    note = "" if monotone else "; note: rate sequence is not monotone"
    for cover in ("arcs", "arcs_bfe"):
        depth = max((r.n[0] for r in rows if r.cover == cover), default=0)
        if depth < cfg.n_max:
            budget = f"member budget {cfg.member_budget}"
            if depth + 1 > DEFAULT_LAMBDA_BUDGET:
                budget = f"box budget {DEFAULT_LAMBDA_BUDGET}"
            note += f"; {cover} swept to depth {depth} of {cfg.n_max}: the join over box "
            note += f"({depth + 1},) passes the {budget}"
    kind, _, arg = cfg.potential.partition(":")
    if kind == "arc":
        a = float(arg or 1.0)
        target = max(a, 0.0) + math.log1p(math.exp(-abs(a)))  # log(1 + e^a), no overflow
    elif kind == "constant":
        target = math.log(2.0) + float(arg or 0.0)
    else:
        detail = "no closed-form target for a values potential" + note
        return [VerdictItem("doubling-rate", True, detail)]
    rate, (depth,) = arc_q[-1].rate, arc_q[-1].n
    gap = abs(rate - target)
    detail = f"final Q rate {rate:.6f} vs target {target:.6f} (|gap| = {gap:.6f}){note}"
    # Past 0.05, allow the rounding of the rate's float sums of `depth`
    # terms near the target, which dwarfs 0.05 once |target| passes ~1e14.
    return [VerdictItem("doubling-rate", gap <= 0.05 + 2 * depth * math.ulp(target), detail)]


# -- leakage ---------------------------------------------------------------


def _disk_index(sectors: int, ring: int, sector: int) -> int:
    return 1 + ring * sectors + sector


def pizza_cover(sys: FiniteSystem, rings: int, sectors: int, slices: int) -> SetFamily:
    """Half-radius disk plus full-height angular slices; not admissible."""
    if sectors % slices:
        raise ValueError("slice count must divide the sector count")
    cells = _disk_index(sectors, np.arange(rings)[:, None], np.arange(sectors))
    inner_disk = np.arange(_disk_index(sectors, rings // 2, 0))  # the center and inner rings
    members = [inner_disk, *(piece.ravel() for piece in np.hsplit(cells, slices))]
    return SetFamily.from_state_sets(sys.state_count, members)


def annulus_cell_partition(sys: FiniteSystem, rings: int, sectors: int, annulus_rings: int) -> SetFamily:
    """One annulus class holding every marked cell, all other cells separate."""
    states = np.arange(sys.state_count)
    # Label 0 is the annulus; cells below it, the center first, count up from 1.
    return SetFamily.from_labels(
        np.where(states < _disk_index(sectors, rings - annulus_rings, 0), states + 1, 0)
    )


def euclid_separated_count(
    sys: FiniteSystem, rings: int, sectors: int, band: int, eps: float, depth: int
) -> list[int]:
    """Greedy maximal sets of boundary-band cells whose orbits stay metrically
    apart, for every depth 1..depth in one pass.

    Two cells count as separated at depth d when at some time below d their
    orbit cell centers are more than eps apart in the plane.  Greedy
    insertion in state order gives a maximal set, hence a certified lower
    bound for the separated count.  Only cells close at time 0 can ever be
    unseparated, and only earlier cells block a later one.

    Candidate pairs come from a grid of time-0 buckets a little wider than
    eps: a close pair lies in neighbouring buckets, so each cell's candidates
    are its later cells in the 3 x 3 buckets around its own.  The exact
    distance test then decides every candidate, so the bucketing can widen
    the candidate set but never change a decision.  The test runs at time 0
    first; a pair apart there is separated at every depth.  Each pair close
    at time 0 carries its separation time, the number of leading times at
    which it is close: time t measures only the pairs still close through
    t - 1, and the loop stops when none are left.  Rows are handled in
    chunks of bounded candidates, so memory per chunk stays O(candidates)
    however deep the count goes.

    The greedy runs on depth bitmasks: each cell has a Python int whose bit
    d - 1 says it is close through depth d to an earlier chosen cell, and a
    pair close at its first k times is close through depths 1..k, the mask
    2**k - 1, so depths over 64 need no word handling.  Each cell in turn
    is chosen at the depths where its bit is clear; a cell chosen at none is
    skipped, and otherwise it blocks, at those depths, its later cells that
    stay close through them.  The count at depth d is the number of cells
    without bit d - 1.
    """
    # The outer `band` rings, ring by ring, each in sector order.
    band_states = np.arange(_disk_index(sectors, rings - band, 0), _disk_index(sectors, rings, 0))
    count = len(band_states)
    orbits = np.empty((depth, count), dtype=np.int64)
    orbits[0] = band_states
    for k in range(1, depth):
        orbits[k] = sys.generators[0][orbits[k - 1]]
    # Orbit cell centers, one (time, cell) array per plane coordinate.
    x, y = sys.geometry[:, 0][orbits], sys.geometry[:, 1][orbits]

    # Time-0 buckets, wider than eps by far more than the rounding of the
    # distance test (and at least 2**-20 wide, so bucket numbers stay small).
    bucket = max(eps, 2.0**-20) * (1.0 + 2.0**-20)
    bx = np.floor(x[0] / bucket).astype(np.int64)
    by = np.floor(y[0] / bucket).astype(np.int64)
    bx -= bx.min()
    by -= by.min() - 1  # rows 1..height - 2, so row +-1 stays in its column
    height = int(by.max()) + 2
    key = bx * height + by
    order = np.argsort(key, kind="stable")
    keys = key[order]
    # In sorted order, the rows by-1..by+1 of each neighbouring column are one range.
    lo = np.stack([np.searchsorted(keys, key + d * height - 1) for d in (-1, 0, 1)], axis=1)
    hi = np.stack([np.searchsorted(keys, key + d * height + 1, "right") for d in (-1, 0, 1)], axis=1)
    spans = hi - lo
    offsets = np.concatenate([[0], np.cumsum(spans.sum(axis=1))])
    # A chunk of rows has at most max(count, 2**16 // depth) candidates;
    # one row never has more than `count`.
    budget = max(count, (1 << 16) // depth)

    # blocked[i] bit d - 1: cell i is close through depth d to an earlier chosen cell.
    full = (1 << depth) - 1
    prefix = [(1 << k) - 1 for k in range(depth + 1)]  # bits 0..k-1: depths 1..k
    blocked = [0] * count
    start = 0
    while start < count:
        stop = int(np.searchsorted(offsets, offsets[start] + budget, "right")) - 1
        runs = spans[start:stop].ravel()
        run_starts = np.cumsum(runs) - runs
        i = np.repeat(np.arange(start, stop), spans[start:stop].sum(axis=1))
        j = order[np.arange(runs.sum()) + np.repeat(lo[start:stop].ravel() - run_starts, runs)]
        later = j > i
        i, j = i[later], j[later]
        # A pair apart at time 0 is separated at every depth.
        near = ~(np.sqrt((x[0, i] - x[0, j]) ** 2 + (y[0, i] - y[0, j]) ** 2) > eps)
        i, j = i[near], j[near]
        # close[p]: the leading times at which pair p is close, so it is
        # unseparated exactly at depths 1..close[p]; only pairs close through
        # t - 1 are measured at t.
        close = np.ones(len(i), dtype=np.int64)
        alive = np.arange(len(i))
        for t in range(1, depth):
            ai, aj = i[alive], j[alive]
            alive = alive[~(np.sqrt((x[t, ai] - x[t, aj]) ** 2 + (y[t, ai] - y[t, aj]) ** 2) > eps)]
            if not len(alive):
                break
            close[alive] += 1
        firsts = np.flatnonzero(np.diff(i, prepend=-1))
        ends = [*firsts.tolist(), len(i)]
        others, masks = j.tolist(), [prefix[k] for k in close.tolist()]
        for cell, a, b in zip(i[firsts].tolist(), ends, ends[1:]):
            # The cell is chosen at exactly the depths where it is unblocked.
            free = full & ~blocked[cell]
            if not free:
                continue
            for other, mask in zip(others[a:b], masks[a:b]):
                blocked[other] |= free & mask
        start = stop
    return (count - bool_rows(blocked, depth).sum(axis=0)).tolist()


def run_leakage(cfg: ExperimentConfig) -> list[ResultRow]:
    """Boundary complexity seen by three cover notions on the disk grid.

    The pizza-slice track counts joined-family members (itinerary growth) of
    a finite cover that is not admissible; the euclidean track lower-bounds
    metrically separated orbit sets near the boundary; the admissible track
    runs the subcover value of a cover whose single annulus member holds the
    marked ring.  The first two keep growing like the boundary doubling, the
    admissible value saturates, which the tail slope of its log makes plain.
    """
    rings, sectors = cfg.rings, cfg.sectors
    sys = make_disk_system(rings, sectors)
    m = sys.state_count
    f0 = Potential.constant(0.0, m)
    experiment = "leakage"
    rows: list[ResultRow] = []

    pizza = pizza_cover(sys, rings, sectors, cfg.slices)
    if classify_admissible(sys, pizza).is_admissible:
        raise ValueError(f"the pizza cover with {cfg.slices} slices is admissible")
    # Distinct itineraries of the cover: classes of the membership partition.
    pizza_cells = membership_partition(pizza)
    admissible = annulus_cell_partition(sys, rings, sectors, cfg.annulus_rings)
    if not classify_admissible(sys, admissible).is_admissible:
        raise ValueError(f"the annulus partition with {cfg.annulus_rings} rings is not admissible")
    trivial = SetFamily.trivial(m)

    def sweep(family, f=None):
        return box_sweep(sys, family, f, (cfg.n_max,), member_budget=cfg.member_budget)

    ts = list(range(1, cfg.n_max + 1))
    pizza_counts = [joined.count for _, joined, _ in sweep(pizza_cells)]
    euclid_counts = euclid_separated_count(
        sys, rings, sectors, cfg.euclid_band, cfg.euclid_eps, cfg.n_max
    )
    q_samples = {
        name: [
            quadruple_from_joined(joined, f_field, n)["Q"]
            for n, joined, f_field in sweep(fam, f0)
        ]
        for name, fam in (("admissible", admissible), ("trivial", trivial))
    }

    for t, count in zip(ts, pizza_counts):
        rows.append(_count_row(experiment, "pizza", "count", (t,), count))
    euclid = f"euclid_eps{cfg.euclid_eps:g}"
    for t, count in zip(ts, euclid_counts):
        rows.append(_count_row(experiment, euclid, "S", (t,), count, STATUS_GREEDY_LOWER))
    for name, samples in q_samples.items():
        rows.extend(_sample_row(experiment, name, "Q", sample) for sample in samples)
    return rows


def judge_leakage(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> list[VerdictItem]:
    """The pizza and euclidean rates at the last depth, and the admissible
    tail slope; a track without the rows its verdict reads fails it."""
    last = {r.cover: r for r in rows}  # each track's deepest row
    verdicts = []
    for name, cover, what in (
        ("leakage-pizza", "pizza", "pizza itinerary rate {:.4f} (>= 0.6 expected, toward log 2; "
         "diagnostic non-admissible cover)"),
        ("leakage-euclid", f"euclid_eps{cfg.euclid_eps:g}",
         "euclidean separated rate {:.4f} (>= 0.6 expected, toward log 2)"),
    ):
        if cover in last:
            verdicts.append(VerdictItem(name, last[cover].rate >= 0.6, what.format(last[cover].rate)))
        else:
            verdicts.append(VerdictItem(name, False, f"missing: every {cover} row"))
    # The admissible value saturates; the tail slope of its log estimates the
    # limit without the O(count)/depth offset a secant would carry.
    tail = [r for r in rows if r.cover == "admissible"][-2:]
    if len(tail) < 2:
        detail = f"missing: the last two admissible rows, {len(tail)} written"
        verdicts.append(VerdictItem("leakage-admissible", False, detail))
        return verdicts
    prev, final = tail
    log_final, log_prev = math.log(final.raw_value), math.log(prev.raw_value)
    admissible_slope = (log_final - log_prev) / (final.lam - prev.lam)
    verdicts.append(
        VerdictItem(
            "leakage-admissible",
            admissible_slope <= 0.05,
            f"admissible Q tail slope {admissible_slope:.4f} (<= 0.05 expected, target 0; "
            f"secant at depth {final.n[0]} is {final.rate:.4f} and still carries the "
            "saturated-count offset)",
        )
    )
    return verdicts


# -- finite-system variational principle ------------------------------------


def run_finite_vp(cfg: ExperimentConfig) -> list[ResultRow]:
    """Topological pressure vs the best invariant cycle measure, seed by seed.

    The topological side is the subcover value of the finest partition read
    at box depth 2**deep_exponent through the doubling scheme, the last
    `cells` Q row of its seed; the measure side, the `cycles` row, is the
    best measure pressure over uniform cycle measures, which the cycle
    enumeration provides independently.  On a finite deterministic system
    both sides equal the best cycle mean of the potential.  A cycle measure
    whose pressure is off its cycle mean raises a RuntimeError: that checks
    an identity of the library, not the experiment's claim.  The swept
    `cells`, `coarse` and `trivial` partitions write Q, and `coarse` and
    `trivial` S as well: on a partition each class is covered only from
    inside, so G is Q's sample, and S is the one upper value.  On `cells`
    the field is flat on every class, so S is Q's sample there too.
    """
    experiment = "finite-vp"
    rows: list[ResultRow] = []
    for s in range(cfg.seeds):
        rng = np.random.default_rng(cfg.seed + s)
        m = int(rng.integers(2, cfg.max_states + 1))
        gen = rng.integers(0, m, size=m).astype(np.int64)
        sys = FiniteSystem(generators=(gen,))
        f = Potential(rng.uniform(-2.0, 2.0, size=m))
        tag = f"seed{cfg.seed + s}"

        cells = SetFamily.singletons(m)
        coarse = SetFamily.from_labels(rng.integers(0, 2, size=m))
        covers = [("cells", cells), ("coarse", coarse), ("trivial", SetFamily.trivial(m))]
        for name, family in covers:
            for n, joined, f_field in box_sweep(sys, family, f, (cfg.n_max,), member_budget=m):
                quad = quadruple_from_joined(joined, f_field, n)
                for mode in ("Q",) if name == "cells" else ("Q", "S"):
                    rows.append(_sample_row(experiment, f"{tag}/{name}", mode, quad[mode]))

        # The singleton partition is its own join at every box: only the field deepens.
        f_deep = birkhoff_doubling(sys, f, cfg.deep_exponent)[1]
        deep = quadruple_from_joined(cells, f_deep, (2**cfg.deep_exponent,))["Q"]
        rows.append(_sample_row(experiment, f"{tag}/cells", "Q", deep))

        cycles = cycle_structure(sys, f)
        best = -math.inf
        for states, mean in cycles:
            mu = FiniteMeasure.uniform_on(states, m)
            value = measure_pressure(mu, sys, f)
            if abs(value - mean) > 1e-9:
                raise RuntimeError(
                    f"{tag}: cycle measure pressure {value!r} is not the cycle mean {mean!r}"
                )
            best = max(best, value)
        cycle_sample = PressureSample((1,), 1, best, STATUS_EXACT)
        rows.append(_sample_row(experiment, f"{tag}/cycles", "Hrate", cycle_sample))
    return rows


def judge_finite_vp(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> list[VerdictItem]:
    """Each seed's deep Q rate against its `cycles` row, within 1e-6; and
    at each swept depth, Q(trivial) <= Q(coarse) <= Q(cells), and Q <= S for
    `coarse` and `trivial`, within a relative 1e-12.  A finer partition
    splits a class into classes whose minima are at least its minimum, and
    on a partition S sums the class maxima where Q sums the class minima.
    A row that a verdict reads and the CSV lacks fails that verdict."""
    # Keyed by (cover, mode, depth); a deep box at a swept depth is written
    # after its seed's sweep, so the last row at a key is the deep one and
    # the first the swept one.
    last = {(r.cover, r.mode, r.n[0]): r.rate for r in rows}
    swept: dict = {}
    for r in rows:
        swept.setdefault((r.cover, r.mode, r.n[0]), r.rate)
    tags = [f"seed{cfg.seed + s}" for s in range(cfg.seeds)]
    sides = {tag: ((f"{tag}/cells", "Q", 2**cfg.deep_exponent), (f"{tag}/cycles", "Hrate", 1)) for tag in tags}
    missing = [key for pair in sides.values() for key in pair if key not in last]
    gaps = [(tag, abs(last[a] - last[b])) for tag, (a, b) in sides.items() if a in last and b in last]
    failures = [(tag, gap) for tag, gap in gaps if gap > 1e-6]
    detail = (
        f"{cfg.seeds} seeded systems, worst |topological - measure| gap "
        f"{max((gap for _, gap in gaps), default=math.nan):.3e} (tolerance 1e-06)"
        + (f"; failures: {failures}" if failures else "")
        + (f"; missing: {', '.join(map(_row_key, missing))}" if missing else "")
    )
    checks = [("trivial", "Q", "coarse", "Q"), ("coarse", "Q", "cells", "Q")]
    checks += [(name, "Q", name, "S") for name in ("trivial", "coarse")]
    broken, unswept = [], {}
    for tag in tags:
        for d in range(1, cfg.n_max + 1):
            for lo, lo_mode, hi, hi_mode in checks:
                keys = (f"{tag}/{lo}", lo_mode, d), (f"{tag}/{hi}", hi_mode, d)
                absent = [key for key in keys if key not in swept]
                unswept.update(dict.fromkeys(absent))
                if absent:
                    continue
                a, b = swept[keys[0]], swept[keys[1]]
                if a - b > 1e-12 * max(abs(a), abs(b)):
                    broken.append(f"{tag} depth {d}: {lo} {lo_mode} {a!r} > {hi} {hi_mode} {b!r}")
    sweep_detail = (
        f"{cfg.seeds} seeds x {cfg.n_max} depths: Q(trivial) <= Q(coarse) <= Q(cells) and Q <= S "
        "per partition, relative slack 1e-12"
        + (f"; {len(broken)} broken, first: {broken[0]}" if broken else "")
        + (f"; {len(unswept)} missing, first: {_row_key(next(iter(unswept)))}" if unswept else "")
    )
    return [
        VerdictItem("finite-vp", not failures and not missing, detail),
        VerdictItem("finite-vp-sweep", not broken and not unswept, sweep_detail),
    ]


def _row_key(key: tuple) -> str:
    """A (cover, mode, depth) key as a verdict names the row."""
    cover, mode, depth = key
    return f"{cover} {mode} at depth {depth}"


# -- lattice check -----------------------------------------------------------


def run_lattice_check(cfg: ExperimentConfig) -> list[ResultRow]:
    """Random tiling sweep: the residue bound on closed-form tile and residue
    counts, case by case; box sides up to n_max, tile sides up to min(4, n_max).
    Every 50th case, from case 0, tiles by unit cubes."""
    experiment = "lattice-check"
    rng = np.random.default_rng(cfg.seed)
    rows: list[ResultRow] = []
    for case in range(cfg.cases):
        dim = int(rng.integers(1, 4))
        if case % 50 == 0:
            q = tuple(1 for _ in range(dim))
        else:
            q = tuple(int(v) for v in rng.integers(1, min(4, cfg.n_max) + 1, size=dim))
        k = tuple(int(rng.integers(0, qj)) for qj in q)
        n = tuple(int(rng.integers(max(qj, min(2, cfg.n_max)), cfg.n_max + 1)) for qj in q)
        dec = decompose(n, q, k)
        status = STATUS_EXACT if dec.residue_bound_holds() else "violated"
        bound = 2.0 * dim * max(q) * box_cardinality(n) / min(n)
        rows.append(
            _count_row(experiment, f"case{case}-N{dim}", "count", n, 1 + dec.residue, status, bound)
        )
    return rows


def judge_lattice_check(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> list[VerdictItem]:
    """No violated case, and no residue (a count above 1) in a unit-tile case."""
    violations = sum(r.solver_status != STATUS_EXACT for r in rows)
    unit_residues = sum(r.raw_value != 1.0 for r in rows[::50])
    detail = (
        f"{cfg.cases} random tilings, {violations} violations; "
        f"unit-tile cases with nonempty residue: {unit_residues}"
    )
    return [VerdictItem("lattice-bounds", violations == 0 and unit_residues == 0, detail)]


# -- full shift ---------------------------------------------------------------


def run_fullshift(cfg: ExperimentConfig) -> list[ResultRow]:
    """Q, P, S and G of the origin partition, phi read at the origin, at the
    diagonal boxes of the full-shift torus of side `cfg.fullshift_period()`.
    Within the period every window pattern is one class of the join, so each
    rate is the exact pressure P.  The `gibbs` row is h + the integral of phi
    for the product measure of law p*, h read at the period box: the last
    sample of `entropy_rate`, not its limit, which is 0 on a finite system.
    """
    experiment = "fullshift"
    spec = cfg.fullshift_spec()
    top = exact_pressure(spec)
    period = cfg.fullshift_period()
    box = (period,) * cfg.dim
    torus = make_full_shift_torus(cfg.symbols, box)
    symbol = np.arange(torus.state_count) % cfg.symbols  # the symbol at the origin
    origin = SetFamily.from_labels(symbol)
    f = Potential(np.take(spec.site_potential, symbol))
    rows: list[ResultRow] = []
    for n, joined, f_field in box_sweep(torus, origin, f, box):
        quad = quadruple_from_joined(joined, f_field, n)
        rows += [_sample_row(experiment, "origin", mode, quad[mode], bound=top) for mode in "QPSG"]
    # The product measure of law p*, log p*_k = phi(k) - P: e^(S(phi - P)) over the period box.
    mu = FiniteMeasure(np.exp(birkhoff_field(torus, f.shifted(-top), box)))
    lam = box_cardinality(box)
    h = partition_entropy(mu, joined)  # the last sample of `entropy_rate`
    gibbs = PressureSample(box, lam, h + lam * mu.integrate(f), STATUS_EXACT)
    rows.append(_sample_row(experiment, "gibbs", "Hrate", gibbs, bound=top))
    return rows


def judge_fullshift(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> list[VerdictItem]:
    """Every rate within 1e-9 of the closed-form pressure, over the origin's
    Q, P, S and G at every diagonal box up to the period and the `gibbs` row."""
    spec = cfg.fullshift_spec()
    top = exact_pressure(spec)
    period = cfg.fullshift_period()
    # A row that is not exact counts as an infinite gap.
    worst = max(
        (abs(r.rate - top) if r.solver_status == STATUS_EXACT else math.inf for r in rows),
        default=math.nan,
    )
    written = {(r.cover, r.mode, r.n) for r in rows}
    needed = [("origin", mode, (t,) * cfg.dim) for t in range(1, period + 1) for mode in "QPSG"]
    needed.append(("gibbs", "Hrate", (period,) * cfg.dim))
    missing = [key for key in needed if key not in written]
    gibbs = [r.rate for r in rows if r.cover == "gibbs"]
    detail = (
        f"pressure {top:.6f} on the torus of side {period} in dim {cfg.dim}: "
        f"worst |rate - pressure| {worst:.2e} over {len(rows)} rows, gibbs gap "
        f"{abs(gibbs[0] - top) if gibbs else math.nan:.2e}, "
        f"p* = ({', '.join(f'{p:.4f}' for p in gibbs_optimizer(spec))})"
        + (f"; missing: {', '.join(f'{c} {m} at box {n}' for c, m, n in missing)}" if missing else "")
    )
    return [VerdictItem("fullshift", worst <= 1e-9 and not missing, detail)]


RUNNERS: dict[str, Callable[[ExperimentConfig], list[ResultRow]]] = {
    "doubling": run_doubling,
    "leakage": run_leakage,
    "finite-vp": run_finite_vp,
    "lattice-check": run_lattice_check,
    "fullshift": run_fullshift,
}
JUDGES: dict[str, Callable[[ExperimentConfig, list[ResultRow]], list[VerdictItem]]] = {
    "doubling": judge_doubling,
    "leakage": judge_leakage,
    "finite-vp": judge_finite_vp,
    "lattice-check": judge_lattice_check,
    "fullshift": judge_fullshift,
}


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[VerdictItem]]:
    """The experiment's rows and their verdicts."""
    rows = RUNNERS[cfg.experiment](cfg)
    return rows, JUDGES[cfg.experiment](cfg, rows)
