"""Finite dynamical systems carrying a commuting lattice action.

A system is a finite set of states together with one self-map per lattice
generator; the generators must commute so that powers indexed by lattice
points are well defined.  Non-compact model spaces are represented by a set
of *marked* states: the discretization cells whose closure meets the missing
boundary.  Cover admissibility and everything downstream reads compactness
off this marking.

Also here: ergodic sums of a potential over boxes (with a doubling scheme for
astronomically deep sums), the circle-doubling, contracting-disk and
full-shift torus model systems, and cycle enumeration for functional graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from covpress.lattice import Coords, EmptyBoxError, as_point, iter_box


class DimensionMismatchError(ValueError):
    """A lattice point's dimension does not match the system's."""


def checked_states(states: Iterable[int], m: int) -> np.ndarray:
    """`states` as an int64 array; a ValueError names a state outside 0..m-1."""
    idx = np.asarray(states if isinstance(states, np.ndarray) else list(states), dtype=np.int64)
    outside = idx[(idx < 0) | (idx >= m)]
    if len(outside):
        raise ValueError(f"state {outside[0]} is outside 0..{m - 1}")
    return idx


@dataclass(frozen=True)
class FiniteSystem:
    """States 0..M-1 with one generator map per lattice axis.

    `marked` holds the states standing in for neighborhoods of the boundary;
    a state set counts as compact exactly when it avoids every marked state.
    `geometry` optionally carries cell-center coordinates for constructors
    and reporting; the dynamics never reads it.
    """

    generators: tuple[np.ndarray, ...]
    marked: frozenset[int] = frozenset()
    geometry: np.ndarray | None = None

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=np.int64) for g in self.generators)
        if not gens:
            raise ValueError("a system needs at least one generator")
        m = len(gens[0])
        for g in gens:
            if g.ndim != 1 or len(g) != m:
                raise ValueError("generators must be equal-length 1-d maps")
            if m and (g.min() < 0 or g.max() >= m):
                raise ValueError("generator image leaves the state range")
            g.setflags(write=False)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not np.array_equal(gens[i][gens[j]], gens[j][gens[i]]):
                    raise ValueError(f"generators {i} and {j} do not commute")
        checked_states(self.marked, m)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "marked", frozenset(self.marked))

    @property
    def state_count(self) -> int:
        return len(self.generators[0])

    @property
    def dim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Potential:
    """A real value per state."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("potential must be a flat array of state values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, c: float, m: int) -> "Potential":
        return cls(np.full(m, float(c)))

    @classmethod
    def indicator(cls, states: Iterable[int], m: int, height: float = 1.0) -> "Potential":
        if not math.isfinite(height):  # checked even when no state takes it
            raise ValueError("potential values must be finite")
        vals = np.zeros(m)
        vals[checked_states(states, m)] = float(height)
        return cls(vals)

    def shifted(self, c: float) -> "Potential":
        return Potential(self.values + float(c))


def potential_from_spec(spec: str, m: int, arc_states: Iterable[int] | None = None) -> Potential:
    """Decode a `constant:c | arc:a | values:v1,v2,...` potential spec."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return Potential.constant(float(arg or 0.0), m)
    if kind == "arc":
        if arc_states is None:
            raise ValueError("arc potentials need a system with a designated arc")
        return Potential.indicator(arc_states, m, height=float(arg or 1.0))
    if kind == "values":
        vals = [float(v) for v in arg.split(",") if v.strip()]
        if len(vals) != m:
            raise ValueError(f"need {m} potential values, got {len(vals)}")
        return Potential(np.asarray(vals))
    raise ValueError(f"unknown potential spec {spec!r}")


def power_map(sys: FiniteSystem, k: Coords) -> np.ndarray:
    """The map for lattice power k, as a state-index array."""
    k = as_point(k, dim=sys.dim)
    out = np.arange(sys.state_count, dtype=np.int64)
    for axis, reps in enumerate(k):
        g = sys.generators[axis]
        for _ in range(reps):
            out = g[out]
    return out


def _lex_pullbacks(
    sys: FiniteSystem, n: Coords, start: tuple[np.ndarray, ...]
) -> Iterator[tuple[Coords, tuple[np.ndarray, ...]]]:
    """Yield (k, each start array pulled back through T^k) for every k in
    the box below n, in lex order."""
    # stack[d] holds the arrays for the prefix point (k[0], .., k[d-1], 0, .., 0).
    stack = [start] * (sys.dim + 1)
    prev: Coords | None = None
    for k in iter_box(n):
        if prev is not None:
            # Lex order increments exactly one axis and resets deeper ones.
            axis = next(i for i in range(sys.dim) if k[i] != prev[i])
            g = sys.generators[axis]
            stack[axis + 1] = tuple(a[g] for a in stack[axis + 1])
            for deeper in range(axis + 1, sys.dim):
                stack[deeper + 1] = stack[deeper]
        yield k, stack[-1]
        prev = k


def iter_box_pullbacks(
    sys: FiniteSystem, n: Coords, arrays: tuple[np.ndarray, ...]
) -> Iterator[tuple[Coords, tuple[np.ndarray, ...]]]:
    """Yield (k, arrays pulled back through T^k) for every k in the box
    below n, in shell order: each array a, read as a function of the state,
    becomes a o T^k, the bytes of a[power_map(sys, k)].

    Shell t is the points with max(k) = t - 1: every point of the box
    min(t, n) comes before any point of min(t + 1, n), so the walk of the
    box (t, .., t) starts the walk of every larger cube.  A shell is one slab
    per axis a, the points whose last coordinate equal to t - 1 is k_a,
    walked in lex order from T_a^(t-1).  In 1-d the order is 0, 1, 2, ...
    The generators commute, so a o T^(k + e) = (a o T^k)[g] for the
    generator g of the unit step e: each point costs one gather per array,
    and no state map is composed unless it is one of the arrays.  Memory
    stays at 2 dim + 1 copies of each array however large the box is, in
    the array's own dtype: the box sweep walks atom labels in the
    narrowest unsigned dtype that holds them.
    """
    n = as_point(n, dim=sys.dim)
    if any(c == 0 for c in n):
        raise EmptyBoxError(f"box {n} is empty")
    if any(len(a) != sys.state_count for a in arrays):
        raise ValueError("every pulled-back array needs one entry per state")
    tops = [tuple(arrays)] * sys.dim  # per axis: the arrays pulled back through T_a^(t-1)
    for t in range(1, max(n) + 1):
        for a in range(sys.dim):
            if t > n[a]:
                continue
            if t > 1:
                g = sys.generators[a]
                tops[a] = tuple(x[g] for x in tops[a])
            slab = tuple(1 if b == a else min(t if b < a else t - 1, c) for b, c in enumerate(n))
            if 0 in slab:
                continue
            for k, pulled in _lex_pullbacks(sys, slab, tops[a]):
                yield k[:a] + (t - 1,) + k[a + 1 :], pulled


def birkhoff_field(sys: FiniteSystem, f: Potential, n: Coords) -> np.ndarray:
    """The ergodic sum of f over the box below n, for every state at once."""
    total = np.zeros(sys.state_count)
    for _, (fk,) in iter_box_pullbacks(sys, n, (f.values,)):
        total += fk
    return total


def birkhoff_doubling(sys: FiniteSystem, f: Potential, exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """Power map and ergodic-sum field at depth 2**exponent, for 1-d actions.

    Uses sum(f, 2n) = sum(f, n) + sum(f, n) o T^n, so depth grows
    geometrically while work stays linear in the exponent.  This is how the
    pressure of small systems is read off essentially at the limit.
    """
    if sys.dim != 1:
        raise DimensionMismatchError("doubling scheme is defined for 1-d actions")
    tk = sys.generators[0].copy()
    fk = f.values.copy()
    for _ in range(exponent):
        fk = fk + fk[tk]
        tk = tk[tk]
    return tk, fk


def check_doubling_size(m: int) -> None:
    """Refuse an m for which angle doubling on m points is not a bijection.

    An even m would glue pairs of states and collapse itinerary counts, so it
    is rejected rather than silently accepted.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"need an odd m >= 3 (got {m}); doubling mod even m is not a bijection")


def make_circle_doubling(m: int) -> FiniteSystem:
    """Angle-doubling on m equally spaced circle points, m odd so it is a bijection."""
    check_doubling_size(m)
    gen = (2 * np.arange(m, dtype=np.int64)) % m
    return FiniteSystem(generators=(gen,))


def make_disk_system(rings: int, sectors: int) -> FiniteSystem:
    """Cell model of the contracting-and-angle-doubling map on the unit disk.

    The open disk is split into a center cell plus rings x sectors cells with
    half-open bins: radial interval (i/R, (i+1)/R] and angular interval
    [2*pi*j/A, 2*pi*(j+1)/A).  Each cell moves to the cell containing the
    image of its center under z -> |z|(|z|+1)/2 * e^{2i arg z}.  The outermost
    ring is marked: those are the cells whose closure meets the unit circle,
    which the open disk is missing.
    """
    if rings < 2 or sectors < 2:
        raise ValueError("need at least 2 rings and 2 sectors")
    m = rings * sectors + 1
    if m > 2**31:
        raise OverflowError("disk grid too large")

    # Radius depends only on the ring, angle only on the sector, so each is
    # computed once per ring or sector, in the float order of the pointwise
    # formulas, and broadcast; libm's cos and sin (not numpy's, which can
    # differ by an ulp) give the sector directions.
    two_pi = 2.0 * np.pi
    r_c = (np.arange(rings) + 0.5) / rings
    theta_c = two_pi * (np.arange(sectors) + 0.5) / sectors
    r_new = r_c * (r_c + 1.0) / 2.0
    theta_new = (2.0 * theta_c) % two_pi
    ring_new = np.ceil(r_new * rings).astype(np.int64) - 1
    sector_new = (theta_new * sectors / two_pi).astype(np.int64) % sectors
    # r_new > 0, so only the center maps to the center.
    gen = np.zeros(m, dtype=np.int64)
    gen[1:] = (1 + np.minimum(ring_new, rings - 1)[:, None] * sectors + sector_new).ravel()
    geometry = np.zeros((m, 2))
    geometry[1:, 0] = np.outer(r_c, [math.cos(t) for t in theta_c.tolist()]).ravel()
    geometry[1:, 1] = np.outer(r_c, [math.sin(t) for t in theta_c.tolist()]).ravel()
    marked = frozenset(range(1 + (rings - 1) * sectors, m))
    return FiniteSystem(generators=(gen,), marked=marked, geometry=geometry)


def make_full_shift_torus(symbols: int, period: Coords) -> FiniteSystem:
    """The full shift on `symbols` symbols over the torus of sides `period`,
    under the unit shifts.

    State x is the configuration whose symbol at site s is digit s of x in
    base `symbols`, the sites numbered in row-major order, so x is the sum
    of digit_s * symbols**s.  Generator a maps x to the configuration
    s -> x_(s + e_a), each coordinate of s + e_a taken mod its side.
    """
    period = as_point(period)
    if symbols < 1 or 0 in period:
        raise ValueError("a full-shift torus needs a symbol and positive sides")
    states = np.arange(symbols ** math.prod(period), dtype=np.int64)
    gens = [np.zeros_like(states) for _ in period]
    for r in range(math.prod(period) if symbols > 1 else 0):  # with one symbol every digit is 0
        digit = states // symbols**r % symbols
        for a, side in enumerate(period):
            # The digit at site r moves to site r - e_a, wrapping round side a.
            stride = math.prod(period[a + 1 :])
            dst = r - stride if r // stride % side else r + (side - 1) * stride
            gens[a] += digit * symbols**dst
    return FiniteSystem(generators=tuple(gens))


def cycle_structure(sys: FiniteSystem, f: Potential) -> list[tuple[tuple[int, ...], float]]:
    """All eventual cycles of a 1-d system, each with the mean of f along it.

    Every invariant probability measure of a finite deterministic map lives
    on these cycles, so the best cycle mean is the exact variational optimum
    for the potential.  Cycles are rotated to start at their smallest state
    and listed in order of that state.
    """
    if sys.dim != 1:
        raise DimensionMismatchError("cycle enumeration is defined for 1-d actions")
    g = sys.generators[0]
    m = sys.state_count
    color = np.zeros(m, dtype=np.int8)  # 0 unvisited, 1 in progress, 2 done
    cycles: list[tuple[tuple[int, ...], float]] = []
    for start in range(m):
        if color[start]:
            continue
        path = []
        x = start
        while color[x] == 0:
            color[x] = 1
            path.append(x)
            x = int(g[x])
        if color[x] == 1:
            # Walked into a fresh cycle; cut it out of the path.
            pos = path.index(x)
            cyc = path[pos:]
            rot = cyc.index(min(cyc))
            cyc = cyc[rot:] + cyc[:rot]
            mean = math.fsum(float(f.values[s]) for s in cyc) / len(cyc)
            cycles.append((tuple(cyc), mean))
        for s in path:
            color[s] = 2
    return cycles
