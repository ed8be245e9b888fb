"""The four cover-based pressure quantities and their rate sequences.

For a cover joined over a box, these are: the cheapest subcover weighted by
per-member infima (Q) or suprema (P) of the exponentiated ergodic sum, the
largest weight of a separated state set (S: no two chosen states share a
member), and the cheapest weight of a spanning state set (G: every state
shares a member with a chosen one).  All values are handled and reported in
log scale; the exact chain Q <= G <= S <= P holds instance by instance.

Separated sets are maximum-weight independent sets of the closeness graph,
spanning sets are minimum-weight dominating sets, and both collapse states
with identical membership before the search, so partition-shaped instances
of any size stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from covpress.coveralg import (
    DEFAULT_LAMBDA_BUDGET,
    DEFAULT_MEMBER_BUDGET,
    ClosenessGraph,
    SetFamily,
    classify_admissible,
    diagonal_sweep,
    membership_partition,
    orbit_join,
)
from covpress.dynsys import FiniteSystem, Potential, birkhoff_doubling, birkhoff_field
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
    """One evaluated box: the value in log scale and the normalized rate."""

    n: Coords
    lam: int
    log_value: float
    status: str

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


def cover_value_from_joined(
    joined: SetFamily,
    f_field: np.ndarray,
    n: Coords,
    mode: str = "Q",
    exact_limit: int = EXACT_LIMIT_FAMILIES,
) -> PressureSample:
    """Q or P value of an already joined family, given the ergodic field at box n."""
    lam = box_cardinality(n)
    weights = member_log_weights(joined, f_field, mode)
    if joined.is_partition:
        # Every class holds states no other member covers, so the subcover is
        # the whole family and no search is needed.
        return PressureSample(n, lam, log_sum_exp(weights.tolist()), STATUS_EXACT)
    universe = (1 << joined.state_count) - 1
    inst = WeightedCoverInstance(universe, joined.members, tuple(float(w) for w in weights))
    res = min_subcover_value(inst, exact_limit=exact_limit)
    return PressureSample(n, lam, res.log_value, res.status)


def cover_pressure_value(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    n: Coords,
    mode: str = "Q",
    exact_limit: int = EXACT_LIMIT_FAMILIES,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
    lambda_budget: int = DEFAULT_LAMBDA_BUDGET,
) -> PressureSample:
    """Cheapest subcover of the box join, weighted per member by the inf (Q)
    or sup (P) of the exponentiated ergodic sum."""
    n = as_point(n, dim=sys.dim)
    joined = orbit_join(sys, family, n, member_budget=member_budget, lambda_budget=lambda_budget)
    f_field = birkhoff_field(sys, f, n)
    return cover_value_from_joined(joined, f_field, n, mode, exact_limit)


def _atom_representatives(
    family: SetFamily, f_field: np.ndarray, pick: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per atom, the state with the extreme ergodic sum and that sum.

    Ties go to the lowest state index.
    """
    atoms = family.atoms
    best = membership_partition(family).group_extremum(f_field, pick)
    hits = np.flatnonzero(f_field == best[atoms])
    reps = np.full(family.atom_count, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(reps, atoms[hits], hits)
    return reps, best


def _separated_from_joined(
    joined: SetFamily, f_field: np.ndarray, n: Coords, exact_limit: int
) -> tuple[PressureSample, tuple[int, ...]]:
    lam = box_cardinality(n)
    reps, best = _atom_representatives(joined, f_field, "max")
    if joined.is_partition:
        sample = PressureSample(n, lam, log_sum_exp(best.tolist()), STATUS_EXACT)
        return sample, tuple(np.sort(reps).tolist())
    graph = ClosenessGraph(joined)
    reps, best = reps[graph.class_atoms], best[graph.class_atoms]
    res = max_weight_independent_set(graph.class_adjacency(), best.tolist(), exact_limit=exact_limit)
    chosen_states = tuple(sorted(int(reps[c]) for c in res.chosen))
    return PressureSample(n, lam, res.log_value, res.status), chosen_states


def separated_value(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    n: Coords,
    exact_limit: int = EXACT_LIMIT_NODES,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
    lambda_budget: int = DEFAULT_LAMBDA_BUDGET,
) -> tuple[PressureSample, tuple[int, ...]]:
    """Largest total weight of a set no two of whose states share a member.

    States with identical membership are mutually close, so each class
    contributes at most one state and the heaviest representative wins.  On a
    partition the class graph is edgeless and the answer needs no search.
    """
    n = as_point(n, dim=sys.dim)
    joined = orbit_join(sys, family, n, member_budget=member_budget, lambda_budget=lambda_budget)
    f_field = birkhoff_field(sys, f, n)
    return _separated_from_joined(joined, f_field, n, exact_limit)


def _spanning_from_joined(
    joined: SetFamily, f_field: np.ndarray, n: Coords, exact_limit: int
) -> tuple[PressureSample, tuple[int, ...]]:
    lam = box_cardinality(n)
    reps, best = _atom_representatives(joined, f_field, "min")
    if joined.is_partition:
        sample = PressureSample(n, lam, log_sum_exp(best.tolist()), STATUS_EXACT)
        return sample, tuple(np.sort(reps).tolist())
    graph = ClosenessGraph(joined)
    reps, best = reps[graph.class_atoms], best[graph.class_atoms]
    members = joined.members
    coverage = []
    for key in graph.class_members:
        cov = 0
        for m in key:
            cov |= members[m]
        coverage.append(cov)
    universe = (1 << joined.state_count) - 1
    inst = WeightedCoverInstance(universe, tuple(coverage), tuple(best.tolist()))
    res = min_subcover_value(inst, exact_limit=exact_limit)
    chosen_states = tuple(sorted(int(reps[c]) for c in res.chosen))
    return PressureSample(n, lam, res.log_value, res.status), chosen_states


def spanning_value(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    n: Coords,
    exact_limit: int = EXACT_LIMIT_NODES,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
    lambda_budget: int = DEFAULT_LAMBDA_BUDGET,
) -> tuple[PressureSample, tuple[int, ...]]:
    """Smallest total weight of a set every state is close to.

    A chosen state dominates the union of its members, so this is a weighted
    set-cover over membership classes with the cheapest representative per
    class.  On a partition each class can only be dominated from inside and
    the cheapest state per class is forced.
    """
    n = as_point(n, dim=sys.dim)
    joined = orbit_join(sys, family, n, member_budget=member_budget, lambda_budget=lambda_budget)
    f_field = birkhoff_field(sys, f, n)
    return _spanning_from_joined(joined, f_field, n, exact_limit)


def pressure_quadruple(
    sys: FiniteSystem,
    f: Potential,
    family: SetFamily,
    n: Coords,
    exact_limit: int = EXACT_LIMIT_FAMILIES,
    node_limit: int = EXACT_LIMIT_NODES,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> dict[str, PressureSample]:
    """All four values at one box, sharing the join and the ergodic field."""
    n = as_point(n, dim=sys.dim)
    joined = orbit_join(sys, family, n, member_budget=member_budget)
    f_field = birkhoff_field(sys, f, n)
    return quadruple_from_joined(joined, f_field, n, exact_limit, node_limit)


def quadruple_from_joined(
    joined: SetFamily,
    f_field: np.ndarray,
    n: Coords,
    exact_limit: int = EXACT_LIMIT_FAMILIES,
    node_limit: int = EXACT_LIMIT_NODES,
) -> dict[str, PressureSample]:
    """Q, P, G and S of an already joined family, given the ergodic field at box n."""
    out = {
        "Q": cover_value_from_joined(joined, f_field, n, "Q", exact_limit),
        "P": cover_value_from_joined(joined, f_field, n, "P", exact_limit),
    }
    out["G"], _ = _spanning_from_joined(joined, f_field, n, node_limit)
    out["S"], _ = _separated_from_joined(joined, f_field, n, node_limit)
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
    for t, joined, _ in diagonal_sweep(
        sys, family, None, sys.state_count + 1, member_budget=sys.state_count
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
    return PressureSample((lam,), lam, log_sum_exp(weights.tolist()), STATUS_EXACT)


def topological_pressure(
    sys: FiniteSystem,
    f: Potential,
    covers: Sequence[tuple[str, SetFamily]],
    n_max: int,
    exact_limit: int = EXACT_LIMIT_FAMILIES,
    node_limit: int = EXACT_LIMIT_NODES,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
    allow_nonadmissible: bool = False,
) -> tuple[float, dict[str, dict[str, PressureEstimate]]]:
    """Best Q rate over the given admissible covers along the diagonal.

    Every cover must pass the admissibility check unless the diagnostic
    override is set (used only to demonstrate how non-admissible covers leak
    boundary complexity).  The report carries S and G rate sequences next to
    Q for cross-validation; each sample equals the per-box function's at the
    same box.
    """
    report: dict[str, dict[str, PressureEstimate]] = {}
    estimate = -math.inf
    for name, family in covers:
        if not allow_nonadmissible:
            verdict = classify_admissible(sys, family)
            if not verdict.is_admissible:
                raise ValueError(f"cover {name!r} is not admissible")
        q_samples, s_samples, g_samples = [], [], []
        for t, joined, f_field in diagonal_sweep(
            sys, family, f, n_max, member_budget=member_budget
        ):
            n = diagonal(t, sys.dim)
            q_samples.append(cover_value_from_joined(joined, f_field, n, "Q", exact_limit))
            s_samples.append(_separated_from_joined(joined, f_field, n, node_limit)[0])
            g_samples.append(_spanning_from_joined(joined, f_field, n, node_limit)[0])
        report[name] = {
            "Q": rate_sequence(q_samples, "Q"),
            "S": rate_sequence(s_samples, "S"),
            "G": rate_sequence(g_samples, "G"),
        }
        estimate = max(estimate, report[name]["Q"].extrapolated)
    return estimate, report
