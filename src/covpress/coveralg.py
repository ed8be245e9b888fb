"""Covers and partitions of a finite system, stored as atoms plus incidence.

Every family has one representation.  Its *atoms* are its membership
classes: two states share an atom exactly when they lie in the same
members.  `atoms` holds one int64 label per state, and `incidence` is the
read-only bool members x atoms matrix, set once at construction, with
distinct nonempty rows.  A family whose members are pairwise disjoint is a
partition: each member is then a single atom, the incidence is the
identity, and it is never stored, so a partition is just its label array
however many classes it has.  Partition-ness is read off the data, never
declared.  Bitmasks over atoms appear only inside the join kernel's AND
loop and in the closeness graph's adjacency for the searches; `row_masks`
and `bool_rows` convert to them and back.

One kernel, `_join_atoms`, joins two families: each state gets a pair code
below the product of the atom counts, and the distinct codes, in sorted
order, become the new atoms.  When that bound is at most a few times the
state count the codes are ranked through a flag array in time linear in
both, and when every code occurs they are their own ranks and become the
atoms as they are; past that bound the kernel sorts them, with the same
result.  Only covers with overlapping members also lift their member
rows onto the finer atoms and intersect them.  `join`, `refines`,
partition equality and every box sweep step are that kernel.  Within a
sweep's shell a partition's codes stay unranked, as mixed-radix itinerary
codes, and are ranked once per yielded box (`box_join`: once, at the box's
last point), or sooner when their code space passes the member budget or
the flag bound; the atoms, counts and budget errors are those of ranking
at every point.  On top of families sit admissibility classification
against the system's marked states (on a partition, whether one class
holds every marked state), the strongly-admissible cover built from an
admissible partition, the potential-level cover, and the closeness graph
of states sharing a member.

The box sweep is the one place where joins and ergodic sums are built.
`box_sweep` walks the box below n once, in the shell order of
`dynsys.iter_box_pullbacks` (all points of the box min(t, n) before any
point of min(t + 1, n)), which pulls the atom labels back point by point
without composing state maps.  It refines the join by the labels pulled
back to each point and yields it with the field after every shell.  A
potential constant on the family's atoms is summed per joined atom along
the join's pairs and kept so (`AtomSums`); any other one is pulled back
too and summed per state, with the same bytes.  A single box is the sweep's
last item (`box_join`), built by the same walk and join step but ranked
and wrapped in a `SetFamily` only at its end; a rate along the diagonal
reads every item of the sweep over (n_max, .., n_max).  So the join and
field at a box are the same bytes whichever way they are asked for.  A
1-d partition sweep stops joining after its first point that adds no
atom: there J_(t+1) = alpha v T^-1 J_t, so the join repeats at every
later point, and the walk only extends the field.  `is_join_stable`
certifies the same in any dimension: joined with its pullback through
every generator, a `box_join` over the origin and that unit step, the join
gains no member.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from covpress.dynsys import FiniteSystem, Potential, checked_states, iter_box_pullbacks
from covpress.lattice import Coords, EmptyBoxError, as_point, box_cardinality

# Every cover sweep's join budget: 2**16 holds doubling's 2**14 itineraries, the 4 x 4
# torus's 2**16 window patterns and leakage's 12,289-member strongly admissible cover.
DEFAULT_MEMBER_BUDGET = 65536
DEFAULT_LAMBDA_BUDGET = 1_000_000


class CoverBudgetError(RuntimeError):
    """A join exceeded the configured member or box budget."""


def _flag_bound(size: int) -> int:
    """The largest code space `_dense_unique` ranks `size` codes in through a
    flag array: four times the input plus 4096."""
    return 4 * size + 4096


def _dense_unique(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(codes, return_inverse=True)` for integer codes in [0, bound).

    The sorted distinct codes and each code's rank among them.  A flag array
    over the code space gets them in O(len(codes) + bound) time; a code
    space over `_flag_bound(len(codes))` is sorted instead, which keeps the
    flag array's memory O(len(codes)).  When every code occurs, int64 codes
    are their own ranks and are returned as they are, not copied.
    """
    if bound > _flag_bound(len(codes)):
        return np.unique(codes, return_inverse=True)
    seen = np.zeros(bound, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    if len(distinct) == bound and codes.dtype == np.int64:
        return distinct, codes  # every code occurs, so each is its own rank
    rank = np.empty(bound, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[codes]


def unique_columns(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct column of a bool matrix and
    every column's rank among them, columns ordered by their bytes when
    packed down the rows: `np.unique(packed columns, axis=0,
    return_index=True, return_inverse=True)` without the sorted values.

    Up to 64 rows a column is a uint64 code, row 0 its top bit as in its
    packed bytes, so codes order as the bytes do and `_dense_unique` ranks
    them; taller columns are sorted as packed byte records, each one opaque
    void value compared as bytes, not one field per byte.
    """
    if len(flags) > 64:
        columns = np.ascontiguousarray(np.packbits(flags, axis=0).T)
        records = columns.view(f"V{columns.shape[1]}").ravel()
        _, first, rank = np.unique(records, return_index=True, return_inverse=True)
        return first, rank
    codes = np.zeros(flags.shape[1], dtype=np.uint64)
    for row in flags:
        codes <<= 1
        codes |= row
    distinct, rank = _dense_unique(codes, 1 << len(flags))
    first = np.full(len(distinct), len(codes))
    np.minimum.at(first, rank, np.arange(len(codes)))
    return first, rank


def bool_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """Bitmasks as the rows of a bool matrix `width` columns wide: entry
    (i, j) is bit j of masks[i].  Every mask must lie below 2**width."""
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), size), axis=1, count=width, bitorder="little")
    return bits.view(bool)


def row_masks(rows: np.ndarray) -> list[int]:
    """The rows of a bool matrix as bitmasks, the inverse of `bool_rows`."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class SetFamily:
    """An immutable cover or partition of states 0..M-1: atoms plus incidence.

    `atoms[s]` is the membership class of state s, numbered 0..atom_count-1.
    A cover stores `incidence`, the read-only bool members x atoms matrix
    whose row i holds the atoms of member i; a partition (pairwise disjoint
    members) stores None there, and its atom i is its member i.
    """

    __slots__ = ("atoms", "atom_count", "incidence")

    def __init__(
        self,
        atoms: np.ndarray,
        incidence: np.ndarray | None = None,
        atom_count: int | None = None,
    ):
        """`atoms` must already be the membership classes, labelled densely;
        `incidence` holds the members as distinct nonempty bool rows over
        the atoms, or is None when atom i is member i.  `atom_count`, when
        the caller knows it, is taken as given; otherwise it is read off
        the labels."""
        atoms = np.asarray(atoms, dtype=np.int64)
        if atom_count is None:
            atom_count = int(atoms.max()) + 1 if len(atoms) else 0
        if incidence is not None and np.count_nonzero(incidence) == atom_count:
            # Pairwise disjoint: every member is one atom; number atoms by member.
            order = np.empty(atom_count, dtype=np.int64)
            order[incidence.nonzero()[1]] = np.arange(len(incidence))
            atoms = order[atoms]
            incidence = None
        atoms.setflags(write=False)
        if incidence is not None:
            incidence.setflags(write=False)
        self.atoms = atoms
        self.atom_count = atom_count
        self.incidence = incidence

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_flags(cls, atoms: np.ndarray, flags: np.ndarray) -> "SetFamily":
        """The family whose member i holds the atoms flagged in row i of `flags`.

        Empty and repeated rows are dropped, first occurrences kept in
        order, and atoms lying in the same members are merged, so the
        result's atoms are its membership classes.
        """
        if not flags.any(axis=0).all():
            raise ValueError("family members do not cover the state space")
        first, merged = unique_columns(flags)
        rows = np.sort(unique_columns(flags.T)[0])  # each distinct row's first occurrence
        return cls(merged[atoms], flags[np.ix_(rows[flags.any(axis=1)[rows]], first)])

    @classmethod
    def from_state_sets(cls, state_count: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Family of the given state sets; it is a partition when they are
        pairwise disjoint."""
        members = [checked_states(states, state_count) for states in sets]
        flags = np.zeros((len(members), state_count), dtype=bool)
        for row, states in zip(flags, members):
            row[states] = True
        return cls._from_flags(np.arange(state_count), flags)

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "SetFamily":
        """The partition by label, atoms ranked as `np.unique(labels, return_inverse=True)`
        ranks them, by `_dense_unique`: no sort while the label range is within its flag bound."""
        labels = np.asarray(labels, dtype=np.int64)
        lo, hi = (int(labels.min()), int(labels.max())) if len(labels) else (0, -1)
        # Past the flag bound the labels are sorted as given: the shift could overflow.
        codes = labels - lo if hi - lo < _flag_bound(len(labels)) else labels
        return cls(_dense_unique(codes, hi - lo + 1)[1])

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
        return self.atom_count if self.incidence is None else len(self.incidence)

    @property
    def is_partition(self) -> bool:
        """Pairwise disjoint members, i.e. the incidence is the identity."""
        return self.incidence is None

    @property
    def labels(self) -> np.ndarray | None:
        """Per-state member index for a partition, None for a cover."""
        return self.atoms if self.is_partition else None

    def as_labels(self) -> np.ndarray:
        """Per-state member index; partitions only."""
        if not self.is_partition:
            raise ValueError("only partitions have a label form")
        return self.atoms

    def __eq__(self, other) -> bool:
        """Equality as unordered families of sets."""
        if not isinstance(other, SetFamily):
            return NotImplemented
        if self.state_count != other.state_count or self.count != other.count:
            return False
        if self.is_partition or other.is_partition:
            # Same partition iff labels agree up to renaming; no cover is a partition.
            same = self.is_partition == other.is_partition
            return same and _join_atoms(_side(self), _side(other))[1] == self.count
        mine, theirs = ({row.tobytes() for row in f.incidence[:, f.atoms]} for f in (self, other))
        return mine == theirs

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


def _lift(incidence: np.ndarray | None, count: int, parent: np.ndarray) -> np.ndarray:
    """Members over `count` atoms (atom i is member i when `incidence` is
    None) as bool rows over finer atoms, where finer atom j lies inside atom
    parent[j]."""
    if incidence is None:
        return np.arange(count)[:, None] == parent
    return incidence[:, parent]


def _side(family: SetFamily, atoms: np.ndarray | None = None) -> tuple:
    """The family as one side of `_join_atoms`, or, given `atoms`, its atom
    labels pulled back through a state map, the family pulled back."""
    return family.atoms if atoms is None else atoms, family.atom_count, family.incidence


def _join_atoms(left: tuple, right: tuple, defer: int = 0, out: np.ndarray | None = None) -> tuple:
    """The join of two families, each given as (atom labels, label bound,
    incidence or None for a partition), in the same form, followed by the
    sorted distinct pair codes that the joined atoms rank.

    The pair codes of the labels, ranked, are the joined atoms: atom j
    pairs left atom pairs[j] // (right bound) with right atom
    pairs[j] % (right bound); the codes are written into `out` when given.
    When both sides are partitions and the code space is at most `defer`,
    the codes are returned unranked, with the code space as their bound and
    no pairs: a partition side's labels need only lie below its bound, and
    ranking them later gives the same atoms, since ranks keep their order.
    Unless both sides are partitions, the members are the nonempty
    intersections of the lifted members, first occurrences kept in (left
    member, right member) order: each side's rows are ANDed as bitmasks,
    and the distinct intersections come back as bool rows.
    """
    left_atoms, left_count, left_incidence = left
    right_atoms, right_count, right_incidence = right
    codes = np.multiply(left_atoms, right_count, out=out, dtype=np.int64)  # labels may be narrow
    codes += right_atoms
    bound = left_count * right_count
    partition = left_incidence is None and right_incidence is None
    if partition and bound <= defer:
        return codes, bound, None, None
    pairs, atoms = _dense_unique(codes, bound)
    if partition:
        return atoms, len(pairs), None, pairs
    mine = row_masks(_lift(left_incidence, left_count, pairs // right_count))
    theirs = row_masks(_lift(right_incidence, right_count, pairs % right_count))
    members = list(dict.fromkeys(m & t for m in mine for t in theirs if m & t))
    del mine, theirs  # freed before the bool rows are built
    return atoms, len(pairs), bool_rows(members, len(pairs)), pairs


# -- reports ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    is_admissible: bool
    is_strongly_admissible: bool
    witness: int | None


# -- operations ----------------------------------------------------------


def join(a: SetFamily, b: SetFamily) -> SetFamily:
    """All nonempty pairwise intersections, deduplicated; refines both inputs."""
    if a.state_count != b.state_count:
        raise ValueError("families live on different systems")
    atoms, _, incidence, _ = _join_atoms(_side(a), _side(b))
    return SetFamily(atoms, incidence)


def _check_box(n: Coords) -> None:
    lam = box_cardinality(n)
    if lam > DEFAULT_LAMBDA_BUDGET:
        raise CoverBudgetError(f"box cardinality {lam} exceeds budget {DEFAULT_LAMBDA_BUDGET}")


def atom_values(family: SetFamily, f: Potential) -> np.ndarray | None:
    """f's value per atom when f is constant on the family's atoms, else None."""
    phi = np.empty(family.atom_count)
    phi[family.atoms] = f.values
    return phi if (phi[family.atoms] == f.values).all() else None


@dataclass(frozen=True)
class AtomSums:
    """A field constant on each atom of its join: every state of atom a has `values[a]`."""

    values: np.ndarray


def state_field(joined: SetFamily, field: AtomSums | np.ndarray | None) -> np.ndarray | None:
    """A swept field per state, whichever form the sweep gave it in."""
    return field.values[joined.atoms] if isinstance(field, AtomSums) else field


def _join_shells(
    sys: FiniteSystem,
    family: SetFamily,
    f: Potential | None,
    n: Coords,
    member_budget: int,
    every_shell: bool,
) -> Iterator[tuple[Coords, tuple, AtomSums | np.ndarray | None]]:
    """Yield (box, join state, field) for the boxes min(t, n), t = 1..max(n),
    from one walk of the box below n in shell order; the state is as
    `_join_atoms` left it.

    When f is flat on the family's atoms, f o T^k is phi[atoms o T^k] for
    phi, f's value per atom, so the field is a function of the joined atom:
    the walk carries the atom labels alone, `vals[j]` adds up phi along
    atom j's itinerary, extended by the join's pairs at every point, and
    the field is `AtomSums(vals)`.  Each term is added in the walk's order
    from +0.0, as a per-state sum adds it, so the bytes are the same.  A
    potential that is not flat is pulled back and added per state.  The
    labels are walked in the narrowest unsigned dtype that holds them, so
    each pullback gathers 1 or 2 bytes per state for up to 65,536 atoms;
    `_join_atoms` widens their codes to int64.

    With `every_shell` a partition's codes are ranked at each shell's last
    point and every item has a new field, so every item can be kept;
    without it they are ranked only at the box's last point and the field
    is whole only there, so only the last item is.

    In 1-d, once a ranked partition state joins a point into as many atoms
    as it had, no later point is joined: the state, its atoms array
    included, is the join at every larger box, and the budget checks see
    the same count.  A flat field then adds phi at the pulled label of one
    state per atom, which is the term the join's pairs would have added.
    """
    if family.state_count != sys.state_count:
        raise ValueError("family does not live on this system")
    if f is not None and len(f.values) != sys.state_count:
        raise ValueError("potential does not live on this system")
    if 0 in n:
        raise EmptyBoxError(f"box {n} is empty")
    # Partition codes stay unranked while their code space is at most both
    # the member budget and the flag bound: the class count is then within
    # budget, and the later ranking takes the flag array.
    defer = min(member_budget, _flag_bound(sys.state_count))
    phi = None if f is None else atom_values(family, f)
    per_state = f is not None and phi is None
    # The walk pulls back the atom labels, and the potential values when f
    # is not flat; the origin's pullback is the family itself.
    labels = family.atoms.astype(np.min_scalar_type(max(family.atom_count - 1, 0)))
    walk = iter_box_pullbacks(sys, n, (labels, f.values) if per_state else (labels,))
    codes = np.empty(sys.state_count, dtype=np.int64)  # the join codes of every point
    state = None
    field = np.zeros(sys.state_count) if per_state else None
    # The origin's terms, added to +0.0 as the per-state sum adds them.
    vals = None if phi is None else 0.0 + phi
    # Only a ranked state's bound is an atom count, so only a join of two
    # ranked states is checked for stability; `reps` is one state per atom.
    watch = sys.dim == 1 and family.is_partition
    stable = False
    ranked = True  # the origin's bound is the family's atom count
    walked = 0
    for t in range(1, max(n) + 1):
        box = tuple(min(t, c) for c in n)
        _check_box(box)
        lam = box_cardinality(box)
        whole = every_shell or t == max(n)
        rank_at = lam - walked - 1 if whole else -1
        for i, (_, pulled) in enumerate(itertools.islice(walk, lam - walked)):
            side = _side(family, pulled[0])
            if state is None:
                state = side
            elif stable:
                if phi is not None:
                    vals = vals + phi[pulled[0][reps]]
            else:
                atoms, bound, incidence, pairs = _join_atoms(
                    state, side, 0 if i == rank_at else defer, codes
                )
                stable = watch and ranked and pairs is not None and bound == state[1]
                ranked = pairs is not None
                state = atoms, bound, incidence
                if phi is not None and pairs is None:  # unranked: vals spans the code space
                    vals = (vals[:, None] + phi).ravel()
                elif phi is not None:
                    left, right = np.divmod(pairs, family.atom_count)
                    vals = vals[left] + phi[right]
                if stable and phi is not None:
                    reps = np.empty(bound, dtype=np.int64)
                    reps[atoms] = np.arange(sys.state_count)
            # An unranked state's bound is its code space, at most the budget.
            members = state[1] if state[2] is None else len(state[2])
            if members > member_budget:
                raise CoverBudgetError(
                    f"join over box {box} (cardinality {lam}) has {members} members, "
                    f"budget {member_budget}"
                )
            if per_state and i == 0 and every_shell:
                field = field + pulled[1]  # a yielded field is never written again
            elif per_state:
                field += pulled[1]
        walked = lam
        if phi is not None and whole:
            field = AtomSums(vals)
        yield box, state, field
        if every_shell and not stable and state[0] is codes:
            # The kept atoms are the codes ranked in place: join into a fresh buffer.
            codes = np.empty_like(codes)


def _family(state: tuple, field: AtomSums | np.ndarray | None) -> tuple:
    """A join state as a `SetFamily`, with the atom count the state holds,
    and its field, `AtomSums` moved along when the constructor numbers a
    pairwise disjoint cover's atoms by member."""
    atoms, count, incidence = state
    joined = SetFamily(atoms, incidence, count)
    if isinstance(field, AtomSums) and incidence is not None and joined.is_partition:
        moved = np.empty_like(field.values)
        moved[joined.atoms] = field.values[atoms]
        field = AtomSums(moved)
    return joined, field


def box_sweep(
    sys: FiniteSystem,
    family: SetFamily,
    f: Potential | None,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> Iterator[tuple[Coords, SetFamily, AtomSums | np.ndarray | None]]:
    """Yield (box, orbit join, ergodic-sum field) for the boxes min(t, n),
    t = 1..max(n), from one walk of the box below n in shell order.

    Each box point after the origin joins in the family pulled back through
    it, whose atom labels the walk carries from point to point, so states
    are identified exactly when their atom agrees at every point, and a
    cover's members are intersected in first-occurrence order over
    (joined-so-far member, next preimage member).  A partition's itinerary codes are ranked once per yielded
    box, at the shell's last point, or earlier when their code space passes
    `member_budget` or the flag bound; ranking keeps the codes'
    lexicographic order, so the atoms, counts and budget errors are those
    of ranking at every point.  A 1-d partition join that a point leaves
    with as many atoms as before is the join of every later box, so from
    there no point is joined, and each item is the same atoms.
    The field is the sum of f over the box points, None when f is, with
    the bytes of `dynsys.birkhoff_field` read per state (`state_field`); a
    yielded field is never written again.  When f is constant on the
    family's atoms the walk carries no values and the field is `AtomSums`.
    A box over DEFAULT_LAMBDA_BUDGET points raises CoverBudgetError before
    its shell is walked, and a join over `member_budget` members raises it
    too, at the same point as a per-point count would; the items already
    yielded stand, and since a join only refines, no larger box would fit
    either.
    """
    n = as_point(n, dim=sys.dim)
    for box, state, field in _join_shells(sys, family, f, n, member_budget, True):
        yield box, *_family(state, field)


def is_join_stable(sys: FiniteSystem, family: SetFamily) -> bool:
    """True when pulling back through every generator refines nothing more.

    A stable orbit join equals the join over every larger box, so along a
    sweep the certificate is read once, at the last box.  The join with the
    pullback through a generator is the `box_join` over the origin and that
    unit step; it has at most count**2 members, so no budget stops it.
    """
    if family.is_partition and family.count == sys.state_count:
        return True  # a partition with one class per state: nothing left to refine
    for axis in range(sys.dim):
        unit = tuple(2 if a == axis else 1 for a in range(sys.dim))
        if box_join(sys, family, None, unit, family.count**2)[0].count != family.count:
            return False
    return True


def box_join(
    sys: FiniteSystem,
    family: SetFamily,
    f: Potential | None,
    n: Coords,
    member_budget: int = DEFAULT_MEMBER_BUDGET,
) -> tuple[SetFamily, AtomSums | np.ndarray | None]:
    """The join and the field over the whole box below n: the last item of
    `box_sweep`, in its forms, from the same walk and join step.  A
    partition's codes are ranked once, at the box's last point, unless
    their code space passes `member_budget` or the flag bound sooner, and
    no family or field is built for the smaller boxes.  A box over
    DEFAULT_LAMBDA_BUDGET is refused before any walk."""
    n = as_point(n, dim=sys.dim)
    _check_box(n)
    for _, state, field in _join_shells(sys, family, f, n, member_budget, False):
        pass
    return _family(state, field)


def refines(finer: SetFamily, coarser: SetFamily) -> bool:
    """True iff every member of `finer` is contained in some member of `coarser`,
    i.e. is itself a member of their join."""
    if finer.state_count != coarser.state_count:
        raise ValueError("families live on different systems")
    atoms, count, incidence, _ = _join_atoms(_side(finer), _side(coarser))
    if incidence is None:
        # The coarser label must be constant on each finer class.
        return count == finer.count
    parent = np.empty(count, dtype=np.int64)
    parent[atoms] = finer.atoms
    lifted = _lift(finer.incidence, finer.atom_count, parent)
    return {row.tobytes() for row in lifted} <= {row.tobytes() for row in incidence}


def _marked_atoms(sys: FiniteSystem, family: SetFamily) -> np.ndarray:
    """Sorted distinct atoms of the marked states."""
    # A flagless np.unique imports numpy.ma (its is_masked test), about 14 ms in a fresh process.
    return np.flatnonzero(np.bincount(family.atoms[sorted(sys.marked)]))


def classify_admissible(sys: FiniteSystem, family: SetFamily) -> AdmissibilityReport:
    """Admissible: some member contains every marked state, so its complement
    avoids the boundary cells and is compact.  Strongly admissible: every
    member does.  On a partition, whose member i is atom i, admissible means
    exactly one class touches the marked states, and the witness is that
    class; with no marked state the witness is member 0."""
    if family.state_count != sys.state_count:
        raise ValueError("family does not live on this system")
    if not sys.marked:
        return AdmissibilityReport(True, True, 0 if family.count else None)
    marked = _marked_atoms(sys, family)
    if family.is_partition:
        # A partition's member i is atom i, so it holds every marked atom only if there is one.
        holders = marked if len(marked) == 1 else marked[:0]
    else:
        holders = np.flatnonzero(family.incidence[:, marked].all(axis=1))
    witness = int(holders[0]) if len(holders) else None
    return AdmissibilityReport(bool(len(holders)), len(holders) == family.count, witness)


def cover_from_partition(sys: FiniteSystem, partition: SetFamily) -> SetFamily:
    """Strongly admissible cover built by gluing the non-compact class, the
    witness of `classify_admissible` (class 0 when no state is marked), onto
    every other class."""
    if not partition.is_partition:
        raise ValueError("a strongly admissible cover is built from a partition")
    k0 = classify_admissible(sys, partition).witness
    if k0 is None:
        raise ValueError("partition is not admissible: several classes touch marked states")
    if partition.count < 2:
        raise ValueError("need at least two classes to build a cover")
    others = [j for j in range(partition.count) if j != k0]
    flags = np.zeros((len(others), partition.count), dtype=bool)
    flags[:, k0] = True
    flags[np.arange(len(others)), others] = True
    return SetFamily._from_flags(partition.atoms, flags)


def check_level_grid(values: np.ndarray, eps: float) -> None:
    """Refuse an eps whose level grid floats cannot resolve at these values.

    The grid's numbers stay below the values' size plus 2 eps.  Every value
    lies within eps / 4 of a grid center, and the center and its interval's
    ends are each off by at most half the float spacing there, so while
    that spacing is under eps / 4 (and finite) every value lies strictly
    inside an interval and the grid covers the states.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    size = float(np.abs(values).max(initial=0.0))
    spacing = math.ulp(size + 2 * eps)
    if not 4 * spacing < eps:
        raise ValueError(
            f"eps = {eps!r} is too fine for a level grid over potential values of size "
            f"up to {size!r}, whose float spacing is {spacing!r}; it needs eps > 4 x spacing"
        )


def potential_cover(sys: FiniteSystem, f: Potential, eps: float) -> SetFamily:
    """Cover by preimages of value intervals of diameter eps on a half-eps grid.

    Any two states sharing a member have potential values within eps of each
    other, which is what bounds ergodic sums along shared itineraries.  The
    potential must be constant on the marked states (the finite stand-in for
    extending continuously to the missing boundary), which makes the family
    admissible: the interval around the marked value yields a member
    containing every marked state.
    """
    vals = f.values
    if len(vals) != sys.state_count:
        raise ValueError("potential does not live on this system")
    check_level_grid(vals, eps)
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


def lowest_states(family: SetFamily, hits: np.ndarray | None = None) -> np.ndarray:
    """Per atom, the lowest state flagged in the bool mask `hits` (any state
    by default); the int64 maximum for an atom with none."""
    reps = np.full(family.atom_count, np.iinfo(np.int64).max, dtype=np.int64)
    if hits is None:
        np.minimum.at(reps, family.atoms, np.arange(family.state_count))
    else:
        states = np.flatnonzero(hits)
        np.minimum.at(reps, family.atoms[states], states)
    return reps


class ClosenessGraph:
    """States are adjacent when some member of the joined family holds both.

    The graph runs off membership classes, i.e. the family's atoms, ordered
    by their lowest state (an argsort of one value per atom, no sort of the
    states); `class_sizes` counts the states of each.  A class
    is internally a clique, and two classes are adjacent exactly when they
    share a member, which is all the separated/spanning solvers need.  For a
    cover, `holds` is the bool members x classes incidence and `shares` the
    classes x classes matrix of classes sharing a member (every class shares
    one with itself), computed once when first asked for.  A partition's
    graph is a disjoint union of cliques, one per cell, and stores neither.
    """

    def __init__(self, family: SetFamily, lowest: np.ndarray):
        """`lowest` is each atom's lowest state, as `lowest_states(family)` gives it."""
        self.class_atoms = np.argsort(lowest)
        self.class_sizes = np.bincount(family.atoms)[self.class_atoms]
        self.holds = None if family.is_partition else family.incidence[:, self.class_atoms]

    @functools.cached_property
    def shares(self) -> np.ndarray | None:
        if self.holds is None:
            return None
        # numpy multiplies bool matrices without BLAS.  A float32 product
        # sums non-negative counts, which are > 0 exactly where a member is shared.
        counts = self.holds.astype(np.float32)
        return counts.T @ counts > 0

    def class_adjacency(self) -> list[int]:
        """Bitmask adjacency between membership classes (no self loops)."""
        if self.shares is None:
            return [0] * len(self.class_atoms)
        adjacent = self.shares.copy()
        np.fill_diagonal(adjacent, False)
        return row_masks(adjacent)
