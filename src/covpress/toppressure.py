"""The four cover-based pressure quantities and their rate sequences.

For a cover joined over a box, these are: the cheapest subcover weighted by
per-member infima (Q) or suprema (P) of the exponentiated ergodic sum, the
largest weight of a separated state set (S: no two chosen states share a
member), and the cheapest weight of a spanning state set (G: every state
shares a member with a chosen one).  All values are handled and reported in
log scale.  Q <= P and G <= S <= P hold instance by instance, and so does
Q <= G when the joined family is a partition.

`pressure_quadruple` is the per-box entry: it walks the box once for the
join and the ergodic field and hands both to `quadruple_from_joined`, which
rate sweeps call directly at every depth; `cover_value_from_joined` gives Q
alone.  S and G samples carry their chosen states in `.chosen`.  One
optional `exact_limit`, taken only by `quadruple_from_joined`, caps all four
searches; without it Q and P search up to `EXACT_LIMIT_FAMILIES` members and
G and S up to `EXACT_LIMIT_NODES` classes.

States lying in exactly the same members (one atom of the join) are
interchangeable for all four values, so every search runs over these
classes, numbered by lowest state, each weighing its number of states.
Q and P cover the classes with the members; separated sets are
maximum-weight independent sets of the closeness graph of classes, and
spanning sets are minimum-weight dominating sets, a cover of the classes
by the classes sharing a member with each.  Partition-shaped instances of
any size stay exact.

When the ergodic field is constant on every atom of the join (a flat field;
the paper's doubling potentials and the torus site potential give one), a
box is evaluated from one pass over its states plus per-atom work: the atom
minima and their lowest states serve as the maxima too, and on a partition
P is Q's sample and S is G's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from covpress.coveralg import (
    DEFAULT_MEMBER_BUDGET,
    ClosenessGraph,
    SetFamily,
    box_join,
    box_sweep,
    classify_admissible,
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
    (separated for S, spanning for G), in increasing order.
    """

    n: Coords
    lam: int
    log_value: float
    status: str
    chosen: tuple[int, ...] = field(default=(), repr=False)

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

    mode: str
    samples: list[PressureSample] = field(default_factory=list)
    fekete_bound: float | None = None
    extrapolated: float = math.nan

    def is_monotone(self, tol: float = 1e-9) -> bool:
        rates = [s.rate for s in self.samples]
        up = all(b >= a - tol for a, b in zip(rates, rates[1:]))
        down = all(b <= a + tol for a, b in zip(rates, rates[1:]))
        return up or down


def rate_sequence(samples: Sequence[PressureSample], mode: str) -> PressureEstimate:
    """Bundle samples into an estimate.

    In P mode every exactly solved sample rate is a valid upper bound for the
    limit (the value sequence is submultiplicative up to a vanishing boundary
    correction), so the running minimum is reported as the bound.
    """
    samples = sorted(samples, key=lambda s: s.lam)
    if not samples:
        raise ValueError("need at least one sample")
    fekete = None
    if mode == "P":
        exact_rates = [s.rate for s in samples if s.status == STATUS_EXACT]
        fekete = min(exact_rates) if exact_rates else None
    return PressureEstimate(
        mode=mode,
        samples=list(samples),
        fekete_bound=fekete,
        extrapolated=samples[-1].rate,
    )


def member_log_weights(family: SetFamily, f_field: np.ndarray, mode: str) -> np.ndarray:
    """Per-member log-weight: the min (Q) or max (P) of the ergodic sum."""
    if mode not in ("Q", "P"):
        raise ValueError(f"mode must be Q or P, got {mode!r}")
    return family.group_extremum(f_field, "min" if mode == "Q" else "max")


def _subcover_sample(
    graph: ClosenessGraph | None, weights: np.ndarray, n: Coords, exact_limit: int
) -> PressureSample:
    """Cheapest subcover of the joined family under per-member log-weights,
    solved over the classes of its closeness graph; `graph` is None for a
    partition."""
    lam = box_cardinality(n)
    if graph is None:
        # Every class holds states no other member covers, so the subcover is
        # the whole family and no search is needed.
        return PressureSample(n, lam, log_sum_exp(weights), STATUS_EXACT)
    inst = WeightedCoverInstance(graph.holds, graph.class_sizes, tuple(weights.tolist()))
    res = min_subcover_value(inst, exact_limit=exact_limit)
    return PressureSample(n, lam, res.log_value, res.status)


def cover_value_from_joined(joined: SetFamily, f_field: np.ndarray, n: Coords) -> PressureSample:
    """Q alone, of an already joined family, given the ergodic field at box n."""
    weights = member_log_weights(joined, f_field, "Q")
    graph = None if joined.is_partition else ClosenessGraph(joined)
    return _subcover_sample(graph, weights, n, EXACT_LIMIT_FAMILIES)


def _atom_extrema(
    joined: SetFamily, f_field: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per atom, the min of the ergodic sum and the lowest state attaining
    it, then the max and the lowest state attaining that.

    When every state has the value of its atom's lowest state, the field is
    constant on each atom, and every state attains its atom's min and max:
    the same two arrays are returned for both, and no extremum pass is made.
    """
    atoms, count = joined.atoms, joined.atom_count
    states = np.arange(len(atoms))

    def lowest(hits: np.ndarray | None = None) -> np.ndarray:
        """Per atom, the lowest state flagged in `hits` (any state when None)."""
        reps = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
        if hits is None:
            np.minimum.at(reps, atoms, states)
        else:
            np.minimum.at(reps, atoms[hits], states[hits])
        return reps

    first = lowest()
    value = f_field[first]
    if (f_field == value[atoms]).all():
        return value, first, value, first
    lo = np.full(count, np.inf)
    np.minimum.at(lo, atoms, f_field)
    hi = np.full(count, -np.inf)
    np.maximum.at(hi, atoms, f_field)
    return lo, lowest(f_field == lo[atoms]), hi, lowest(f_field == hi[atoms])


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
    joined: SetFamily, f_field: np.ndarray, n: Coords, exact_limit: int | None = None
) -> dict[str, PressureSample]:
    """Q, P, G and S of an already joined family, given the ergodic field at box n.

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

    When the field is constant on every atom, each class's minimum is its
    maximum and its lowest state represents both, so one extremum pass
    serves all four values; on a partition P is then Q's sample and S is
    G's, with the same log-sum and the same states.

    `exact_limit`, when given, caps all four searches; otherwise Q and P use
    `EXACT_LIMIT_FAMILIES` and G and S `EXACT_LIMIT_NODES`.
    """
    member_limit = EXACT_LIMIT_FAMILIES if exact_limit is None else exact_limit
    class_limit = EXACT_LIMIT_NODES if exact_limit is None else exact_limit
    lam = box_cardinality(n)
    lo, lo_reps, hi, hi_reps = _atom_extrema(joined, f_field)
    if joined.is_partition:
        q = _subcover_sample(None, lo, n, member_limit)
        g = replace(q, chosen=tuple(np.sort(lo_reps).tolist()))
        if hi is lo:
            # Class maxima are the class minima and their states, so P is
            # Q's log-sum, and S is G's with the same states.
            return {"Q": q, "P": q, "G": g, "S": g}
        p = _subcover_sample(None, hi, n, member_limit)
        return {"Q": q, "P": p, "G": g, "S": replace(p, chosen=tuple(np.sort(hi_reps).tolist()))}
    graph = ClosenessGraph(joined)
    out = {
        "Q": _subcover_sample(graph, joined.per_member(lo, np.minimum), n, member_limit),
        "P": _subcover_sample(graph, joined.per_member(hi, np.maximum), n, member_limit),
    }
    lo, lo_reps, hi, hi_reps = (a[graph.class_atoms] for a in (lo, lo_reps, hi, hi_reps))
    inst = WeightedCoverInstance(graph.shares, graph.class_sizes, tuple(lo.tolist()))
    g = min_subcover_value(inst, exact_limit=class_limit)
    s = max_weight_independent_set(graph.class_adjacency(), hi.tolist(), exact_limit=class_limit)
    out["G"] = PressureSample(
        n, lam, g.log_value, g.status, tuple(sorted(int(lo_reps[c]) for c in g.chosen))
    )
    out["S"] = PressureSample(
        n, lam, s.log_value, s.status, tuple(sorted(int(hi_reps[c]) for c in s.chosen))
    )
    return out


def stabilized_partition(sys: FiniteSystem, family: SetFamily) -> tuple[SetFamily, int]:
    """The orbit join at every depth beyond the point where it stops refining.

    Only for 1-d actions.  Once joining one more preimage level adds nothing,
    deeper joins never refine again, so the fixed partition equals the join
    at every larger box.  Returns the partition and the depth at which it is
    first attained.
    """
    if sys.dim != 1:
        raise ValueError("stabilization is implemented for 1-d actions")
    if not family.is_partition:
        raise ValueError("stabilization needs a partition")
    # A join of M states refines at most M - 1 times, so it is stable by depth M.
    previous = None
    for (t,), joined, _ in box_sweep(
        sys, family, None, (sys.state_count + 1,), member_budget=sys.state_count
    ):
        if previous is not None and joined.count == previous.count:
            return previous, t - 1
        previous = joined
    raise RuntimeError("partition failed to stabilize within the step limit")


def deep_partition_sample(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    exponent: int,
    mode: str = "Q",
) -> PressureSample:
    """Exact pressure value of a partition at box depth 2**exponent.

    The join has stabilized long before such depths, so the member weights
    only need the ergodic sums, which the doubling scheme provides without
    iterating the box.  This reads the limit rate off a finite system to
    float precision.
    """
    stable, depth = stabilized_partition(sys, family)
    if 2**exponent < depth:
        raise ValueError(f"depth 2**{exponent} is below the stabilization depth {depth}")
    _, f_deep = birkhoff_doubling(sys, f, exponent)
    weights = member_log_weights(stable, f_deep, mode)
    lam = 2**exponent
    return PressureSample((lam,), lam, log_sum_exp(weights), STATUS_EXACT)


def topological_pressure(
    sys: FiniteSystem,
    f: Potential,
    covers: Sequence[tuple[str, SetFamily]],
    n_max: int,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
    allow_nonadmissible: bool = False,
) -> tuple[float, dict[str, dict[str, PressureEstimate]]]:
    """Best Q rate over the given admissible covers along the diagonal.

    Every cover must pass the admissibility check unless the diagnostic
    override is set (used only to demonstrate how non-admissible covers leak
    boundary complexity).  The report carries the P, S and G rate sequences
    next to Q for cross-validation; each sample equals `pressure_quadruple`'s
    at the same box.
    """
    report: dict[str, dict[str, PressureEstimate]] = {}
    estimate = -math.inf
    for name, family in covers:
        if not allow_nonadmissible:
            verdict = classify_admissible(sys, family)
            if not verdict.is_admissible:
                raise ValueError(f"cover {name!r} is not admissible")
        samples: dict[str, list[PressureSample]] = {mode: [] for mode in "QPSG"}
        sweep = box_sweep(sys, family, f, diagonal(n_max, sys.dim), member_budget)
        for n, joined, f_field in sweep:
            quad = quadruple_from_joined(joined, f_field, n)
            for mode, sample in quad.items():
                samples[mode].append(sample)
        report[name] = {mode: rate_sequence(s, mode) for mode, s in samples.items()}
        estimate = max(estimate, report[name]["Q"].extrapolated)
    return estimate, report
