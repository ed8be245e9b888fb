"""The four cover-based pressure quantities and their rate sequences.

For a cover joined over a box, these are: the cheapest subcover weighted by
per-member infima (Q) or suprema (P) of the exponentiated ergodic sum, the
largest weight of a separated state set (S: no two chosen states share a
member), and the cheapest weight of a spanning state set (G: every state
shares a member with a chosen one).  All values are handled and reported in
log scale.  Q <= P and G <= S <= P hold instance by instance, and so does
Q <= G when the joined family is a partition.

`quadruple_from_joined` is the one evaluator: every value, at every box,
is read off its result.  `pressure_quadruple` walks one box for the join and
the ergodic field and hands both to it; rate sweeps call it at every depth;
`deep_partition_sample` returns its quadruple for a stable partition with
the ergodic field of a box too deep to walk.  S and G samples carry their
chosen states, read sorted in `.chosen`.  One optional `exact_limit`, taken only by
`quadruple_from_joined`, caps all four searches; without it Q and P search
up to `EXACT_LIMIT_FAMILIES` members and G and S up to `EXACT_LIMIT_NODES`
classes.

States lying in exactly the same members (one atom of the join) are
interchangeable for all four values, so every search runs over these
classes, numbered by lowest state, each weighing its number of states.
Q and P cover the classes with the members; separated sets are
maximum-weight independent sets of the closeness graph of classes, and
spanning sets are minimum-weight dominating sets, a cover of the classes
by the classes sharing a member with each.  Partition-shaped instances of
any size stay exact.

When the ergodic field is constant on every atom of the join (a flat field;
the paper's doubling potentials and the torus site potential give one),
the sweep hands it over per atom, and the atom sums serve as minima and
maxima.  A cover's box is then evaluated from one pass over its states for
the atoms' lowest states plus per-atom work.  A partition's needs no pass
over its states: every value is a log-sum of the atom sums, P is Q's
sample and S is G's, and that sample holds its join, whose lowest state
per class is found when `.chosen` is first read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from covpress.coveralg import (
    DEFAULT_MEMBER_BUDGET,
    AtomSums,
    ClosenessGraph,
    SetFamily,
    box_join,
    box_sweep,
    classify_admissible,
    lowest_states,
)
from covpress.dynsys import FiniteSystem, Potential, birkhoff_doubling
from covpress.lattice import Coords, as_point, box_cardinality, diagonal
from covpress.solvers import (
    EXACT_LIMIT_FAMILIES,
    EXACT_LIMIT_NODES,
    STATUS_EXACT,
    WeightedCoverInstance,
    log_sum_exp,
    max_weight_independent_set,
    min_subcover_value,
)


@dataclass(frozen=True)
class PressureSample:
    """One evaluated box: the value in log scale and the normalized rate.

    An S or G sample also carries the states whose weights make up its value
    (separated for S, spanning for G) as any int array in `states`; `.chosen`
    reads them as a tuple in increasing order, sorted on its first read.  A
    flat partition's sample holds its join in `states` instead, and finds
    each class's lowest state, its one chosen state, only when `.chosen` is
    read; it keeps the join after that read, so the join's state-sized int64
    atoms array lives for as long as the sample does.
    """

    n: Coords
    lam: int
    log_value: float
    status: str
    states: np.ndarray | tuple | SetFamily = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def chosen(self) -> tuple[int, ...]:
        states = lowest_states(self.states) if isinstance(self.states, SetFamily) else self.states
        return tuple(np.sort(states).tolist())

    @property
    def rate(self) -> float:
        return self.log_value / self.lam

    @property
    def raw_value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


@dataclass
class PressureEstimate:
    """Rate sequence for one cover and mode, with its extrapolation."""

    samples: list[PressureSample]
    extrapolated: float

    def is_monotone(self) -> bool:
        """True when the sample rates never fall, or never rise, by more than 1e-9 a step."""
        rates = [s.rate for s in self.samples]
        up = all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
        down = all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
        return up or down


def rate_sequence(samples: Sequence[PressureSample]) -> PressureEstimate:
    """Bundle samples, in order of box size, into an estimate extrapolated
    by the last rate."""
    samples = sorted(samples, key=lambda s: s.lam)
    if not samples:
        raise ValueError("need at least one sample")
    return PressureEstimate(samples, samples[-1].rate)


def _subcover_sample(
    graph: ClosenessGraph, weights: np.ndarray, n: Coords, exact_limit: int
) -> PressureSample:
    """Cheapest subcover of the joined cover under per-member log-weights,
    solved over the classes of its closeness graph."""
    inst = WeightedCoverInstance(graph.holds, graph.class_sizes, tuple(weights.tolist()))
    res = min_subcover_value(inst, exact_limit=exact_limit)
    return PressureSample(n, box_cardinality(n), res.log_value, res.status)


def _atom_extrema(
    joined: SetFamily, f_field: AtomSums | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per atom, the min of the ergodic sum and the lowest state attaining
    it, then the max and the lowest state attaining that, and last each
    atom's lowest state, which orders the closeness graph's classes.

    On `AtomSums`, a field the sweep found constant on each atom, every
    state attains its atom's min and max: the same two arrays are returned
    for both, and no extremum pass is made.  The lowest states are still
    found, as a cover's closeness graph orders its classes by them; a flat
    partition needs none of this and is evaluated without it.
    """
    first = lowest_states(joined)
    if isinstance(f_field, AtomSums):
        return f_field.values, first, f_field.values, first, first
    atoms, count = joined.atoms, joined.atom_count
    lo = np.full(count, np.inf)
    np.minimum.at(lo, atoms, f_field)
    hi = np.full(count, -np.inf)
    np.maximum.at(hi, atoms, f_field)
    lo_reps = lowest_states(joined, f_field == lo[atoms])
    return lo, lo_reps, hi, lowest_states(joined, f_field == hi[atoms]), first


def _member_extrema(
    holds: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per member of a members x classes incidence, the min of `lo` and the
    max of `hi` over the classes it holds.

    Every member holds a class, so each one's run of the incidence's
    nonzeros is nonempty and is reduced without a dense float matrix.
    """
    rows, cols = np.nonzero(holds)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return np.minimum.reduceat(lo[cols], starts), np.maximum.reduceat(hi[cols], starts)


def pressure_quadruple(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> dict[str, PressureSample]:
    """Q, P, G and S of the family joined over the box below n.

    The join and the ergodic field come from one walk of the box.
    """
    n = as_point(n, dim=sys.dim)
    joined, f_field = box_join(sys, family, f, n, member_budget)
    return quadruple_from_joined(joined, f_field, n)


def quadruple_from_joined(
    joined: SetFamily, f_field: AtomSums | np.ndarray, n: Coords, exact_limit: int | None = None
) -> dict[str, PressureSample]:
    """Q, P, G and S of a joined family, given the box-n ergodic field per state or as `AtomSums`.

    Q and P are the cheapest subcovers weighted per member by the min and
    max of the ergodic sum.  S is the heaviest set of states no two of which
    share a member, G the lightest set of states that every state shares a
    member with.

    All four work on membership classes (atoms): Q and P cover them with
    the members, each class counting its states.  States with identical
    membership are mutually close, so each class is represented by its
    heaviest (S) or lightest (G) state: S is a maximum-weight independent
    set of the class graph, and G a weighted cover of the classes in which
    a class covers every class it shares a member with.  On a partition the
    class graph is edgeless and each class can only be covered from inside,
    so G is Q's log-sum of class minima and S is P's of class maxima.

    When the field comes as `AtomSums`, constant on every atom, each class's
    minimum is its maximum and its lowest state represents both, so one
    pass for the lowest states serves all four values.  On a partition P is
    then Q's sample and S is G's, with the same log-sum and the same states,
    and no pass over the states is made: the sample holds its join, whose
    lowest states `.chosen` finds on its first read; a caller that keeps the
    sample keeps the join's state-sized atoms array, `.chosen` read or not.

    `exact_limit`, when given, caps all four searches; otherwise Q and P use
    `EXACT_LIMIT_FAMILIES` and G and S `EXACT_LIMIT_NODES`.
    """
    if f_field is None:  # what a sweep without a potential yields
        raise ValueError("no ergodic field: sweep with Potential.constant(0.0, m) for the zero potential")
    member_limit = EXACT_LIMIT_FAMILIES if exact_limit is None else exact_limit
    class_limit = EXACT_LIMIT_NODES if exact_limit is None else exact_limit
    lam = box_cardinality(n)
    if joined.is_partition and isinstance(f_field, AtomSums):
        # Class maxima are the class minima, and each class's lowest state
        # represents both: P is Q's log-sum, S is G's with the same states,
        # and the join stands for them until `.chosen` is read.
        q = PressureSample(n, lam, log_sum_exp(f_field.values), STATUS_EXACT)
        g = replace(q, states=joined)
        return {"Q": q, "P": q, "G": g, "S": g}
    lo, lo_reps, hi, hi_reps, first = _atom_extrema(joined, f_field)
    if joined.is_partition:
        # Every class holds states no other member covers, so the subcover
        # is the whole family and no search is needed.
        q = PressureSample(n, lam, log_sum_exp(lo), STATUS_EXACT)
        p = PressureSample(n, lam, log_sum_exp(hi), STATUS_EXACT)
        return {"Q": q, "P": p, "G": replace(q, states=lo_reps), "S": replace(p, states=hi_reps)}
    graph = ClosenessGraph(joined, first)
    lo, lo_reps, hi, hi_reps = (a[graph.class_atoms] for a in (lo, lo_reps, hi, hi_reps))
    q_weights, p_weights = _member_extrema(graph.holds, lo, hi)
    out = {
        "Q": _subcover_sample(graph, q_weights, n, member_limit),
        "P": _subcover_sample(graph, p_weights, n, member_limit),
    }
    inst = WeightedCoverInstance(graph.shares, graph.class_sizes, tuple(lo.tolist()))
    g = min_subcover_value(inst, exact_limit=class_limit)
    s = max_weight_independent_set(graph.class_adjacency(), hi.tolist(), exact_limit=class_limit)
    out["G"] = PressureSample(n, lam, g.log_value, g.status, lo_reps[list(g.chosen)])
    out["S"] = PressureSample(n, lam, s.log_value, s.status, hi_reps[list(s.chosen)])
    return out


def stabilized_partition(sys: FiniteSystem, family: SetFamily) -> tuple[SetFamily, int]:
    """The orbit join at every depth beyond the point where it stops refining.

    Only for 1-d actions, where J_(t+1) = alpha v T^-1 J_t: the first swept
    join whose count the next depth repeats equals the join at every larger
    box.  It is returned with its depth, the depth at which the fixed
    partition is first attained.
    """
    if sys.dim != 1:
        raise ValueError("stabilization is implemented for 1-d actions")
    if not family.is_partition:
        raise ValueError("stabilization needs a partition")
    # A join of M states refines at most M - 1 times, so depth M + 1 repeats depth M.
    sweep = box_sweep(sys, family, None, (sys.state_count + 1,), member_budget=sys.state_count)
    for ((t,), joined, _), (_, deeper, _) in itertools.pairwise(sweep):
        if deeper.count == joined.count:
            return joined, t
    raise RuntimeError("partition failed to stabilize within the step limit")


def deep_partition_sample(
    sys: FiniteSystem, f: Potential, family: SetFamily, exponent: int
) -> dict[str, PressureSample]:
    """Exact Q, P, G and S of a partition at box depth 2**exponent, as
    `quadruple_from_joined` returns them.

    The join has stabilized long before such depths, so it is the stable
    partition, and the evaluator only needs the ergodic sums, which the
    doubling scheme provides without iterating the box.  This reads the
    limit rate off a finite system to float precision.
    """
    stable, depth = stabilized_partition(sys, family)
    if 2**exponent < depth:
        raise ValueError(f"depth 2**{exponent} is below the stabilization depth {depth}")
    _, f_deep = birkhoff_doubling(sys, f, exponent)
    return quadruple_from_joined(stable, f_deep, (2**exponent,))


def topological_pressure(
    sys: FiniteSystem, f: Potential, covers: Sequence[tuple[str, SetFamily]], n_max: int
) -> tuple[float, dict[str, dict[str, PressureEstimate]]]:
    """Best Q rate over the given admissible covers along the diagonal.

    A cover that fails `classify_admissible` raises a ValueError naming it.
    The report carries the P, S and G rate sequences next to Q for
    cross-validation; each sample equals `pressure_quadruple`'s at the same
    box, and each sweep runs under DEFAULT_MEMBER_BUDGET.
    """
    report: dict[str, dict[str, PressureEstimate]] = {}
    estimate = -math.inf
    for name, family in covers:
        if not classify_admissible(sys, family).is_admissible:
            raise ValueError(f"cover {name!r} is not admissible")
        samples: dict[str, list[PressureSample]] = {mode: [] for mode in "QPSG"}
        sweep = box_sweep(sys, family, f, diagonal(n_max, sys.dim))
        for n, joined, f_field in sweep:
            quad = quadruple_from_joined(joined, f_field, n)
            for mode, sample in quad.items():
                samples[mode].append(sample)
        report[name] = {mode: rate_sequence(s) for mode, s in samples.items()}
        estimate = max(estimate, report[name]["Q"].extrapolated)
    return estimate, report
