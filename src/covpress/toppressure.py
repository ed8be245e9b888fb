"""The four cover-based pressure quantities.

For a cover joined over a box, these are: the cheapest subcover weighted by
per-member infima (Q) or suprema (P) of the exponentiated ergodic sum, the
largest weight of a separated state set (S: no two chosen states share a
member), and the cheapest weight of a spanning state set (G: every state
shares a member with a chosen one).  All values are handled and reported in
log scale.  Q <= P and G <= S <= P hold instance by instance, and so does
Q <= G when the joined family is a partition.

`quadruple_from_joined` is the one evaluator: every value, at every box,
is read off its result.  `pressure_quadruple` walks one box for the join and
the ergodic field and hands both to it; rate sweeps call it at every depth,
and `finite-vp` calls it on the singleton partition, its own join at every
box, with the doubling field of a box too deep to walk.  S and G samples
carry their chosen states, read sorted in `.chosen`.  Q and P search up to
`EXACT_LIMIT_FAMILIES` members and G and S up to `EXACT_LIMIT_NODES`
classes; nothing overrides either limit.

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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from covpress import solvers
from covpress.coveralg import (
    DEFAULT_MEMBER_BUDGET,
    AtomSums,
    ClosenessGraph,
    SetFamily,
    box_join,
    lowest_states,
)
from covpress.dynsys import FiniteSystem, Potential
from covpress.lattice import Coords, EmptyBoxError, as_point, box_cardinality
from covpress.solvers import (
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


def _subcover_sample(graph: ClosenessGraph, weights: np.ndarray, n: Coords) -> PressureSample:
    """Cheapest subcover of the joined cover under per-member log-weights,
    solved over the classes of its closeness graph."""
    inst = WeightedCoverInstance(graph.holds, graph.class_sizes, tuple(weights.tolist()))
    res = min_subcover_value(inst)
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
    joined, f_field = box_join(sys, family, f, n, member_budget)
    return quadruple_from_joined(joined, f_field, n)


def quadruple_from_joined(
    joined: SetFamily, f_field: AtomSums | np.ndarray, n: Coords
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

    A missing field, or one without a value per state (per atom, for
    `AtomSums`), raises a ValueError.  `n` is read by `as_point`, and a box
    with a zero side raises `EmptyBoxError`.
    """
    n = as_point(n)
    if 0 in n:
        raise EmptyBoxError(f"box {n} is empty")
    if f_field is None:  # what a sweep without a potential yields
        raise ValueError("no ergodic field: sweep with Potential.constant(0.0, m) for the zero potential")
    if isinstance(f_field, AtomSums):
        held, needed, unit = len(f_field.values), joined.atom_count, "atom"
    else:
        held, needed, unit = len(f_field), joined.state_count, "state"
    if held != needed:
        raise ValueError(f"the field has {held} values, not one per {unit} of the join ({needed})")
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
    out = {"Q": _subcover_sample(graph, q_weights, n), "P": _subcover_sample(graph, p_weights, n)}
    inst = WeightedCoverInstance(graph.shares, graph.class_sizes, tuple(lo.tolist()))
    g = min_subcover_value(inst, exact_limit=solvers.EXACT_LIMIT_NODES)
    s = max_weight_independent_set(graph.class_adjacency(), hi.tolist())
    out["G"] = PressureSample(n, lam, g.log_value, g.status, lo_reps[list(g.chosen)])
    out["S"] = PressureSample(n, lam, s.log_value, s.status, hi_reps[list(s.chosen)])
    return out

