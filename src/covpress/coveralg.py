"""Covers and partitions of a finite system, stored as atoms plus incidence.

Every family has one representation.  Its *atoms* are its membership
classes: two states share an atom exactly when they lie in the same
members.  `atoms` holds one int64 label per state, and each member is a
bitmask over atoms.  A family whose members are pairwise disjoint is a
partition: each member is then a single atom, the incidence is the identity,
and it is never stored, so a partition is just its label array however many
classes it has.  Partition-ness is read off the data, never declared.

One kernel, `_join_atoms`, joins two families: each state gets a pair code
below the product of the atom counts, and the distinct codes, in sorted
order, become the new atoms.  When that bound is at most a few times the
state count the codes are ranked through a flag array in time linear in
both; past that the kernel sorts them, with the same result.  Only covers
with overlapping members also lift their member bitmasks onto the finer
atoms and intersect them.  `join`, `preimage_family`, `refines`, partition
equality and every box sweep step are that kernel.  On top of families sit
admissibility classification against the system's marked states, the
strongly-admissible cover built from an admissible partition, the
potential-level cover, and the closeness graph of states sharing a member.

The box sweep is the one place where joins and ergodic sums are built.
`box_sweep` walks the box below n once, in the shell order of
`dynsys.iter_box_maps` (all points of the box min(t, n) before any point of
min(t + 1, n)), refines the join by the family pulled back through each
point, adds the potential at each point to the field, and yields both after
every shell.  A single box is the sweep's last item (`box_join`,
`orbit_join`); a rate along the diagonal reads every item of the sweep over
(n_max, .., n_max).  So the join and field at a box are the same bytes
whichever way they are asked for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from covpress.dynsys import FiniteSystem, Potential, iter_box_maps, power_map
from covpress.lattice import Coords, as_point, box_cardinality

DEFAULT_MEMBER_BUDGET = 4096
DEFAULT_LAMBDA_BUDGET = 1_000_000


class CoverBudgetError(RuntimeError):
    """A join exceeded the configured member or box budget."""


def _dense_unique(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(codes, return_inverse=True)` for int64 codes in [0, bound).

    The sorted distinct codes and each code's rank among them.  A flag array
    over the code space gets them in O(len(codes) + bound) time; a code
    space over four times the input plus 4096 is sorted instead, which
    keeps the flag array's memory O(len(codes)).
    """
    if bound > 4 * len(codes) + 4096:
        return np.unique(codes, return_inverse=True)
    seen = np.zeros(bound, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(bound, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[codes]


def unique_columns(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct column of a bool matrix and
    every column's rank among them, columns ordered by their bytes when
    packed down the rows: `np.unique(packed columns, axis=0,
    return_index=True, return_inverse=True)` without the sorted values.

    Up to 64 rows, a column packs into one big-endian uint64 key, which
    sorts as its bytes do but without the record comparisons.
    """
    columns = np.packbits(flags, axis=0).T
    if len(flags) > 64:
        _, first, rank = np.unique(columns, axis=0, return_index=True, return_inverse=True)
        return first, rank.reshape(-1)
    keys = np.zeros((len(columns), 8), dtype=np.uint8)
    keys[:, : columns.shape[1]] = columns
    _, first, rank = np.unique(
        keys.view(">u8").ravel().astype(np.uint64), return_index=True, return_inverse=True
    )
    return first, rank


def _bits(mask: int, width: int) -> np.ndarray:
    """A bitmask as a bool array of the given width."""
    raw = np.frombuffer(mask.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def _mask(flags: np.ndarray) -> int:
    """A bool array as a bitmask."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class SetFamily:
    """An immutable cover or partition of states 0..M-1: atoms plus incidence.

    `atoms[s]` is the membership class of state s, numbered 0..atom_count-1.
    A cover keeps each member as a bitmask over atoms; a partition (pairwise
    disjoint members) stores no incidence, and its atom i is its member i.
    Members are deduplicated and empty ones dropped at construction.
    """

    __slots__ = ("atoms", "atom_count", "_incidence")

    def __init__(self, atoms: np.ndarray, incidence: Sequence[int] | None = None):
        """`atoms` must already be the membership classes, labelled densely;
        `incidence` lists the members as atom bitmasks, or is None when
        atom i is member i."""
        atoms = np.asarray(atoms, dtype=np.int64)
        atom_count = int(atoms.max()) + 1 if len(atoms) else 0
        if incidence is not None:
            incidence = tuple(dict.fromkeys(m for m in incidence if m))
            if sum(m.bit_count() for m in incidence) == atom_count:
                # Pairwise disjoint: every member is one atom; number atoms by member.
                order = np.empty(atom_count, dtype=np.int64)
                order[[m.bit_length() - 1 for m in incidence]] = np.arange(len(incidence))
                atoms = order[atoms]
                incidence = None
        atoms.setflags(write=False)
        self.atoms = atoms
        self.atom_count = atom_count
        self._incidence = incidence

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_flags(cls, atoms: np.ndarray, flags: np.ndarray) -> "SetFamily":
        """The family whose member i holds the atoms flagged in row i of `flags`.

        Empty and repeated rows are dropped, and atoms lying in the same
        members are merged, so the result's atoms are its membership classes.
        """
        if not flags.any(axis=0).all():
            raise ValueError("family members do not cover the state space")
        first, merged = unique_columns(flags)
        return cls(merged[atoms], [_mask(row) for row in flags[:, first]])

    @classmethod
    def from_state_sets(
        cls, state_count: int, sets: Iterable[Iterable[int]], kind: str = "cover"
    ) -> "SetFamily":
        """Family of the given state sets; `kind="partition"` also checks
        that they are pairwise disjoint."""
        if kind not in ("cover", "partition"):
            raise ValueError(f"unknown family kind {kind!r}")
        rows = []
        for states in sets:
            if isinstance(states, np.ndarray):
                idx = np.asarray(states, dtype=np.int64)
            else:
                idx = np.fromiter(states, dtype=np.int64)
            if len(idx) and (idx.min() < 0 or idx.max() >= state_count):
                raise ValueError("member mentions states outside the system")
            row = np.zeros(state_count, dtype=bool)
            row[idx] = True
            rows.append(row)
        flags = np.array(rows, dtype=bool).reshape(len(rows), state_count)
        family = cls._from_flags(np.arange(state_count), flags)
        if kind == "partition" and not family.is_partition:
            raise ValueError("partition members must be pairwise disjoint")
        return family

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "SetFamily":
        _, normalized = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
        return cls(normalized)

    @classmethod
    def trivial(cls, state_count: int) -> "SetFamily":
        return cls(np.zeros(state_count, dtype=np.int64))

    @classmethod
    def singletons(cls, state_count: int) -> "SetFamily":
        return cls(np.arange(state_count))

    # -- basic views ----------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.atoms)

    @property
    def count(self) -> int:
        return self.atom_count if self._incidence is None else len(self._incidence)

    @property
    def is_partition(self) -> bool:
        """Pairwise disjoint members, i.e. the incidence is the identity."""
        return self._incidence is None

    @property
    def labels(self) -> np.ndarray | None:
        """Per-state member index for a partition, None for a cover."""
        return self.atoms if self._incidence is None else None

    def as_labels(self) -> np.ndarray:
        """Per-state member index; partitions only."""
        if self._incidence is not None:
            raise ValueError("only partitions have a label form")
        return self.atoms

    def atom_flags(self, i: int) -> np.ndarray:
        """Which atoms member i holds, as a bool array over atoms."""
        if self._incidence is None:
            return np.arange(self.atom_count) == i
        return _bits(self._incidence[i], self.atom_count)

    def holders(self, a: int) -> tuple[int, ...]:
        """Indices of the members holding atom a."""
        if self._incidence is None:
            return (int(a),)
        return tuple(i for i, m in enumerate(self._incidence) if m >> int(a) & 1)

    @property
    def members(self) -> tuple[int, ...]:
        """Members as bitmasks over states."""
        return tuple(_mask(self.atom_flags(i)[self.atoms]) for i in range(self.count))

    def member_states(self, i: int) -> list[int]:
        return np.flatnonzero(self.atom_flags(i)[self.atoms]).tolist()

    def per_member(self, per_atom: np.ndarray, ufunc) -> np.ndarray:
        """Combine per-atom values into per-member values with `ufunc`."""
        if self._incidence is None:
            return per_atom
        return np.array(
            [ufunc.reduce(per_atom[_bits(m, self.atom_count)]) for m in self._incidence]
        )

    def group_extremum(self, values: np.ndarray, mode: str) -> np.ndarray:
        """Per-member min or max of a per-state value array."""
        reducer = np.minimum if mode == "min" else np.maximum
        out = np.full(self.atom_count, np.inf if mode == "min" else -np.inf)
        reducer.at(out, self.atoms, values)
        return self.per_member(out, reducer)

    def __eq__(self, other) -> bool:
        """Equality as unordered families of sets."""
        if not isinstance(other, SetFamily):
            return NotImplemented
        if self.state_count != other.state_count or self.count != other.count:
            return False
        if self.is_partition and other.is_partition:
            # Same partition iff labels agree up to renaming.
            return _join_atoms(_side(self), _side(other))[1] == self.count
        return sorted(self.members) == sorted(other.members)

    def __repr__(self) -> str:
        kind = "partition" if self.is_partition else "cover"
        return f"SetFamily({kind}, M={self.state_count}, members={self.count})"


def membership_partition(family: SetFamily) -> SetFamily:
    """The partition of states by which members contain them: the atoms.

    For a cover this is the finest distinction its itineraries can ever
    express, so joining this partition over a box counts the cover's
    distinct itineraries.
    """
    return SetFamily(family.atoms)


def _lift(incidence: Sequence[int] | None, count: int, parent: np.ndarray) -> list[int]:
    """Members over `count` atoms (atom i is member i when `incidence` is
    None) as bitmasks over finer atoms, where finer atom j lies inside atom
    parent[j]."""
    if incidence is None:
        return [_mask(parent == i) for i in range(count)]
    return [_mask(_bits(m, count)[parent]) for m in incidence]


def _side(family: SetFamily, image: np.ndarray | slice = slice(None)) -> tuple:
    """The family pulled back through a state map (the identity by default),
    as one side of `_join_atoms`."""
    return family.atoms[image], family.atom_count, family._incidence


def _join_atoms(left: tuple, right: tuple) -> tuple:
    """The join of two families, each given as (atom labels, label bound,
    incidence or None for a partition), in the same form.

    The pair codes of the labels, ranked, are the joined atoms.  Unless both
    sides are partitions, the members are the nonempty intersections of the
    lifted members, first occurrences kept in (left member, right member)
    order.
    """
    left_atoms, left_count, left_incidence = left
    right_atoms, right_count, right_incidence = right
    pairs, atoms = _dense_unique(left_atoms * right_count + right_atoms, left_count * right_count)
    if left_incidence is None and right_incidence is None:
        return atoms, len(pairs), None
    mine = _lift(left_incidence, left_count, pairs // right_count)
    theirs = _lift(right_incidence, right_count, pairs % right_count)
    return atoms, len(pairs), list(dict.fromkeys(m & t for m in mine for t in theirs if m & t))


# -- reports ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    is_admissible: bool
    is_strongly_admissible: bool
    witness: int | None


@dataclass(frozen=True)
class PartitionAdmissibilityReport:
    is_admissible_partition: bool
    noncompact_index: int | None


# -- operations ----------------------------------------------------------


def preimage_family(sys: FiniteSystem, family: SetFamily, k: Coords) -> SetFamily:
    """Pull the family back through the power-k map: the trivial partition
    joined with the pulled-back labels.

    Partitions stay partitions.  Members whose preimage is empty are dropped.
    """
    if family.state_count != sys.state_count:
        raise ValueError("family does not live on this system")
    trivial = _side(SetFamily.trivial(sys.state_count))
    atoms, _, incidence = _join_atoms(trivial, _side(family, power_map(sys, k)))
    return SetFamily(atoms, incidence)


def join(a: SetFamily, b: SetFamily) -> SetFamily:
    """All nonempty pairwise intersections, deduplicated; refines both inputs."""
    if a.state_count != b.state_count:
        raise ValueError("families live on different systems")
    atoms, _, incidence = _join_atoms(_side(a), _side(b))
    return SetFamily(atoms, incidence)


def _check_box(n: Coords) -> None:
    lam = box_cardinality(n)
    if lam > DEFAULT_LAMBDA_BUDGET:
        raise CoverBudgetError(f"box cardinality {lam} exceeds budget {DEFAULT_LAMBDA_BUDGET}")


def box_sweep(
    sys: FiniteSystem,
    family: SetFamily,
    f: Potential | None,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> Iterator[tuple[Coords, SetFamily, np.ndarray | None]]:
    """Yield (box, orbit join, ergodic-sum field) for the boxes min(t, n),
    t = 1..max(n), from one walk of the box below n in shell order.

    Each box point after the origin joins in the family pulled back through
    it, so states are identified exactly when their atom agrees at every
    point, and a cover's members are intersected in first-occurrence order
    over (joined-so-far member, next preimage member).
    The field is the sum of f over the box points, None when f is.  A box
    over DEFAULT_LAMBDA_BUDGET points raises CoverBudgetError before its
    shell is walked, and a join over `member_budget` members raises it too;
    the items already yielded stand, and since a join only refines, no
    larger box would fit either.
    """
    n = as_point(n, dim=sys.dim)
    if family.state_count != sys.state_count:
        raise ValueError("family does not live on this system")
    walk = iter_box_maps(sys, n)
    state = None
    field = None if f is None else np.zeros(sys.state_count)
    walked = 0
    for t in range(1, max(n) + 1):
        box = tuple(min(t, c) for c in n)
        _check_box(box)
        lam = box_cardinality(box)
        for _, tk in itertools.islice(walk, lam - walked):
            # The walk starts at the origin, whose pullback is the family itself.
            state = _side(family, tk) if state is None else _join_atoms(state, _side(family, tk))
            members = state[1] if state[2] is None else len(state[2])
            if members > member_budget:
                raise CoverBudgetError(
                    f"join over box {box} (cardinality {lam}) has {members} members, "
                    f"budget {member_budget}"
                )
            if field is not None:
                field = field + f.values[tk]
        walked = lam
        yield box, SetFamily(state[0], state[2]), field


def box_join(
    sys: FiniteSystem,
    family: SetFamily,
    f: Potential | None,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> tuple[SetFamily, np.ndarray | None]:
    """The join and the field over the whole box below n: the last item of
    `box_sweep`.  A box over DEFAULT_LAMBDA_BUDGET is refused before any walk."""
    n = as_point(n, dim=sys.dim)
    _check_box(n)
    for _, joined, field in box_sweep(sys, family, f, n, member_budget):
        pass
    return joined, field


def orbit_join(
    sys: FiniteSystem,
    family: SetFamily,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> SetFamily:
    """Join of the preimages of the family over the whole box below n."""
    return box_join(sys, family, None, n, member_budget)[0]


def refines(finer: SetFamily, coarser: SetFamily) -> bool:
    """True iff every member of `finer` is contained in some member of `coarser`,
    i.e. is itself a member of their join."""
    if finer.state_count != coarser.state_count:
        raise ValueError("families live on different systems")
    atoms, count, incidence = _join_atoms(_side(finer), _side(coarser))
    if incidence is None:
        # The coarser label must be constant on each finer class.
        return count == finer.count
    parent = np.empty(count, dtype=np.int64)
    parent[atoms] = finer.atoms
    return set(_lift(finer._incidence, finer.atom_count, parent)) <= set(incidence)


def classify_admissible(sys: FiniteSystem, family: SetFamily) -> AdmissibilityReport:
    """Admissible: some member contains every marked state, so its complement
    avoids the boundary cells and is compact.  Strongly admissible: every
    member does."""
    if family.state_count != sys.state_count:
        raise ValueError("family does not live on this system")
    if not sys.marked:
        return AdmissibilityReport(True, True, 0 if family.count else None)
    marked = np.unique(family.atoms[sorted(sys.marked)])
    # A member holding every marked atom holds the first one.
    holders = [i for i in family.holders(marked[0]) if family.atom_flags(i)[marked].all()]
    witness = holders[0] if holders else None
    return AdmissibilityReport(bool(holders), len(holders) == family.count, witness)


def classify_admissible_partition(
    sys: FiniteSystem, family: SetFamily
) -> PartitionAdmissibilityReport:
    """Admissible partition: at most one class touches the marked states."""
    if not family.is_partition:
        raise ValueError("admissible-partition classification needs a partition")
    if not sys.marked:
        return PartitionAdmissibilityReport(True, None)
    touched = np.unique(family.atoms[sorted(sys.marked)])
    if len(touched) > 1:
        return PartitionAdmissibilityReport(False, None)
    return PartitionAdmissibilityReport(True, int(touched[0]))


def cover_from_partition(sys: FiniteSystem, partition: SetFamily) -> SetFamily:
    """Strongly admissible cover built by gluing the non-compact class onto
    every other class."""
    report = classify_admissible_partition(sys, partition)
    if not report.is_admissible_partition:
        raise ValueError("partition is not admissible: several classes touch marked states")
    if partition.count < 2:
        raise ValueError("need at least two classes to build a cover")
    k0 = report.noncompact_index if report.noncompact_index is not None else 0
    others = [j for j in range(partition.count) if j != k0]
    flags = np.zeros((len(others), partition.count), dtype=bool)
    flags[:, k0] = True
    flags[np.arange(len(others)), others] = True
    return SetFamily._from_flags(partition.atoms, flags)


def potential_cover(sys: FiniteSystem, f: Potential, eps: float) -> SetFamily:
    """Cover by preimages of value intervals of diameter eps on a half-eps grid.

    Any two states sharing a member have potential values within eps of each
    other, which is what bounds ergodic sums along shared itineraries.  The
    potential must be constant on the marked states (the finite stand-in for
    extending continuously to the missing boundary), which makes the family
    admissible: the interval around the marked value yields a member
    containing every marked state.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    vals = f.values
    if len(vals) != sys.state_count:
        raise ValueError("potential does not live on this system")
    if sys.marked:
        marked_vals = {float(vals[s]) for s in sys.marked}
        if len(marked_vals) != 1:
            raise ValueError("potential must be constant on marked states")
    half = eps / 2.0
    step = half
    lo = int(np.floor((vals.min() - half) / step)) - 1
    hi = int(np.ceil((vals.max() + half) / step)) + 1
    centers = np.arange(lo, hi + 1) * step
    flags = (vals > centers[:, None] - half) & (vals < centers[:, None] + half)
    return SetFamily._from_flags(np.arange(sys.state_count), flags[flags.any(axis=1)])


# -- closeness ------------------------------------------------------------


class ClosenessGraph:
    """States are adjacent when some member of the joined family holds both.

    The graph runs off membership classes, i.e. the family's atoms, ordered
    by their lowest state; `class_sizes` counts the states of each.  A class
    is internally a clique, and two classes are adjacent exactly when they
    share a member, which is all the separated/spanning solvers need.  For a
    cover, `holds` is the bool members x classes incidence and `shares` the
    classes x classes matrix of classes sharing a member (every class shares
    one with itself), computed once when first asked for.  A partition's
    graph is a disjoint union of cliques, one per cell, and stores neither.
    """

    def __init__(self, family: SetFamily):
        _, first = np.unique(family.atoms, return_index=True)
        self.class_atoms = np.argsort(first)
        self.class_sizes = np.bincount(family.atoms)[self.class_atoms]
        self.holds = None
        if not family.is_partition:
            flags = np.array([family.atom_flags(i) for i in range(family.count)])
            self.holds = flags[:, self.class_atoms]

    @functools.cached_property
    def shares(self) -> np.ndarray | None:
        return None if self.holds is None else self.holds.T @ self.holds

    def class_adjacency(self) -> list[int]:
        """Bitmask adjacency between membership classes (no self loops)."""
        if self.shares is None:
            return [0] * len(self.class_atoms)
        adjacent = self.shares.copy()
        np.fill_diagonal(adjacent, False)
        return [_mask(row) for row in adjacent]
