"""Combinatorics of the index semigroup of N-tuples of non-negative integers.

Points of the semigroup index the group of commuting maps acting on a state
space.  This module provides the rectangular boxes below a point, their
cardinality, the counts of the tiling of a box by translates of a smaller
box (tiles and leftover residue), and symmetric differences of shifted
boxes.  Everything here is exact integer arithmetic; these quantities
control every limit taken elsewhere in the package.
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


def iter_box(n: Coords) -> Iterator[Coords]:
    """Lazy lexicographic iteration over the box below n."""
    n = as_point(n)
    if any(c == 0 for c in n):
        raise EmptyBoxError(f"box {n} is empty")
    return itertools.product(*(range(c) for c in n))


@dataclass(frozen=True)
class TileDecomposition:
    """Tiling of the box below n by translates of the box below q, as counts.

    Tiles are anchored at the points congruent to k modulo q whose q-tile
    fits inside the n-box; `corners` counts them.  `residue` counts the
    points of the n-box the tiles leave uncovered; its share of the box
    vanishes as n grows, which is what makes box limits subadditive.
    """

    n: Coords
    q: Coords
    k: Coords
    corners: int
    residue: int

    def residue_bound_holds(self) -> bool:
        """|residue| * min(n) <= 2 * N * max(q) * lambda(n), all integers."""
        lam = box_cardinality(self.n)
        return self.residue * min(self.n) <= 2 * len(self.n) * max(self.q) * lam


def decompose(n: Coords, q: Coords, k: Coords) -> TileDecomposition:
    """Tile the n-box by q-tiles anchored on the shifted sublattice through k.

    Axis j holds c_j = max(0, (n_j - k_j) // q_j) corners, k_j + q_j * t for
    t < c_j, so there are prod c_j tiles, and they cover prod c_j * lambda(q)
    distinct points: the rest of the box is the residue.
    """
    n = as_point(n)
    q = as_point(q, dim=len(n))
    k = as_point(k, dim=len(n))
    if any(c == 0 for c in n) or any(c == 0 for c in q):
        raise EmptyBoxError(f"degenerate decomposition n={n} q={q}")
    if any(kc >= qc for kc, qc in zip(k, q)):
        raise ValueError(f"anchor {k} must lie in the box below {q}")
    corners = 1
    for nj, qj, kj in zip(n, q, k):
        corners *= max(0, (nj - kj) // qj)
    residue = box_cardinality(n) - corners * box_cardinality(q)
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
