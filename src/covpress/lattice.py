"""Combinatorics of the index semigroup of N-tuples of non-negative integers.

Points of the semigroup index the group of commuting maps acting on a state
space.  This module provides the rectangular boxes below a point, their
cardinality, the tiling of a box by translates of a smaller box (with the
leftover residue), and symmetric differences of shifted boxes.  Everything
here is exact integer arithmetic; these quantities control every limit taken
elsewhere in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

Coords = tuple[int, ...]

# Box cardinalities are kept inside signed 64-bit range so downstream numpy
# index arrays and CSV consumers never see wrapped values.
MAX_CARDINALITY = 2**63 - 1


class EmptyBoxError(ValueError):
    """A box with a zero coordinate was used where a nonempty box is required."""


class BoxOverflowError(OverflowError):
    """A box cardinality or coordinate product left the 64-bit range."""


def as_point(p: Iterable[int], dim: int | None = None) -> Coords:
    """Validate and normalize a lattice point to a tuple of non-negative ints."""
    pt = tuple(int(c) for c in p)
    if not pt:
        raise ValueError("lattice points need at least one coordinate")
    if any(c < 0 for c in pt):
        raise ValueError(f"negative coordinate in lattice point {pt}")
    if dim is not None and len(pt) != dim:
        raise ValueError(f"expected dimension {dim}, got point {pt}")
    if any(c > MAX_CARDINALITY for c in pt):
        raise BoxOverflowError(f"coordinate out of 64-bit range in {pt}")
    return pt


def diagonal(t: int, dim: int) -> Coords:
    """The point (t, ..., t); limits are taken along these."""
    return as_point([t] * dim)


def box_cardinality(n: Coords) -> int:
    """Number of points dominated by n, i.e. the product of the coordinates."""
    card = 1
    for c in n:
        card *= c
        if card > MAX_CARDINALITY:
            raise BoxOverflowError(f"box cardinality of {n} leaves 64-bit range")
    return card


def enumerate_box(n: Coords) -> list[Coords]:
    """All points componentwise below n, in lexicographic order.

    Raises EmptyBoxError when a coordinate is zero: callers always want a
    nonempty box and silent emptiness hides bugs.
    """
    n = as_point(n)
    if any(c == 0 for c in n):
        raise EmptyBoxError(f"box {n} is empty")
    box_cardinality(n)
    return list(itertools.product(*(range(c) for c in n)))


def iter_box(n: Coords) -> Iterator[Coords]:
    """Lazy lexicographic iteration over the box below n."""
    n = as_point(n)
    if any(c == 0 for c in n):
        raise EmptyBoxError(f"box {n} is empty")
    return itertools.product(*(range(c) for c in n))


@dataclass(frozen=True)
class TileDecomposition:
    """Tiling of the box below n by translates of the box below q.

    Tiles are anchored at `corners`, the points congruent to k modulo q whose
    q-tile fits inside the n-box.  `residue` is the part of the n-box the
    tiles leave uncovered; its share of the box vanishes as n grows, which is
    what makes box limits subadditive.
    """

    n: Coords
    q: Coords
    k: Coords
    corners: frozenset[Coords]
    residue: frozenset[Coords]

    @property
    def tile_cardinality(self) -> int:
        return box_cardinality(self.q)

    def covered_count(self) -> int:
        return len(self.corners) * self.tile_cardinality + len(self.residue)

    def residue_bound_holds(self) -> bool:
        """|residue| * min(n) <= 2 * N * max(q) * lambda(n), all integers."""
        lam = box_cardinality(self.n)
        return len(self.residue) * min(self.n) <= 2 * len(self.n) * max(self.q) * lam


def decompose(n: Coords, q: Coords, k: Coords) -> TileDecomposition:
    """Tile the n-box by q-tiles anchored on the shifted sublattice through k."""
    n = as_point(n)
    q = as_point(q, dim=len(n))
    k = as_point(k, dim=len(n))
    if any(c == 0 for c in n) or any(c == 0 for c in q):
        raise EmptyBoxError(f"degenerate decomposition n={n} q={q}")
    if any(kc >= qc for kc, qc in zip(k, q)):
        raise ValueError(f"anchor {k} must lie in the box below {q}")

    # Corner coordinates per axis: k_j + q_j * t with the whole tile inside.
    axis_corners = []
    for nj, qj, kj in zip(n, q, k):
        stops = range(kj, nj - qj + 1, qj) if nj - qj >= kj else range(0)
        axis_corners.append(list(stops))
    corners = frozenset(itertools.product(*axis_corners))

    # The tiles fill the product of the per-axis ranges [k_j, k_j + q_j * c_j),
    # c_j the number of corners on axis j; the residue is everything else.
    tiled = [range(kj, kj + qj * len(c)) for kj, qj, c in zip(k, q, axis_corners)]
    residue = frozenset(pt for pt in iter_box(n) if any(c not in s for c, s in zip(pt, tiled)))
    return TileDecomposition(n=n, q=q, k=k, corners=corners, residue=residue)


def sym_diff_cardinality(n: Coords, m: Coords) -> int:
    """Exact size of the symmetric difference between the n-box and its m-shift.

    The shifted box below n sits on [m_j, m_j + n_j); the overlap with the
    original is the product of max(0, n_j - m_j), so the symmetric difference
    is twice the box size minus twice the overlap.
    """
    n = as_point(n)
    m = as_point(m, dim=len(n))
    lam = box_cardinality(n)
    overlap = 1
    for nj, mj in zip(n, m):
        overlap *= max(0, nj - mj)
    return 2 * (lam - overlap)
