"""Reference constructions that only the tests use.

Each builds a value the program never needs, so that a test can check a
theorem or an identity of the code under test against it: powered systems,
random invariant measures, conditional entropy, the states of one member
of a family, an overlapping cover of the two-symbol full shift on a small
torus, product measures on any full-shift torus, and the tile corners and
residue of a box tiling as point sets, which the program only counts, and
the level cover of a potential flagged interval by interval over every
state, which the program builds from each state's own intervals.  It
also keeps three shorthands the program does not call: the two-symbol
torus with its state numbers, the plain box join of a family and the
unit-mass test of a measure.
"""

import itertools
import math

import numpy as np

from covpress.coveralg import DEFAULT_MEMBER_BUDGET, SetFamily, box_join, join
from covpress.dynsys import FiniteSystem, Potential, cycle_structure, make_full_shift_torus, power_map
from covpress.lattice import Coords, as_point
from covpress.measpressure import FiniteMeasure

PROBABILITY_TOL = 1e-9


def dense_potential_cover(vals: np.ndarray, eps: float) -> SetFamily:
    """`coveralg.potential_cover`'s family, without its checks, from a
    levels x states flag matrix: every grid interval tested against every state."""
    half = step = eps / 2.0
    lo = int(np.floor((vals.min() - half) / step)) - 1
    hi = int(np.ceil((vals.max() + half) / step)) + 1
    centers = np.arange(lo, hi + 1) * step
    flags = (vals > centers[:, None] - half) & (vals < centers[:, None] + half)
    return SetFamily._from_flags(np.arange(len(vals)), flags[flags.any(axis=1)])


def orbit_join(sys: FiniteSystem, family: SetFamily, n: Coords, member_budget: int = DEFAULT_MEMBER_BUDGET) -> SetFamily:
    """Join of the preimages of the family over the whole box below n."""
    return box_join(sys, family, None, n, member_budget)[0]


def is_probability(mu: FiniteMeasure, tol: float = PROBABILITY_TOL) -> bool:
    return abs(mu.mass - 1.0) <= tol


def power_system(sys: FiniteSystem, m: Coords) -> FiniteSystem:
    """The action re-indexed through componentwise multiples of m."""
    m = as_point(m, dim=sys.dim)
    if any(c < 1 for c in m):
        raise ValueError(f"power point must be componentwise >= 1, got {m}")
    gens = tuple(
        power_map(sys, tuple(reps if b == axis else 0 for b in range(sys.dim)))
        for axis, reps in enumerate(m)
    )
    return FiniteSystem(generators=gens, marked=sys.marked, geometry=sys.geometry)


def invariant_cycle_mixture(sys: FiniteSystem, rng: np.random.Generator, mass: float = 1.0) -> FiniteMeasure:
    """Random invariant measure: a mixture of uniform cycle measures."""
    cycles = cycle_structure(sys, Potential.constant(0.0, sys.state_count))
    coeffs = rng.dirichlet(np.ones(len(cycles))) * mass
    w = np.zeros(sys.state_count)
    for (states, _), c in zip(cycles, coeffs):
        w[list(states)] += c / len(states)
    return FiniteMeasure(w)


def conditional_entropy(mu: FiniteMeasure, c: SetFamily, d: SetFamily) -> float:
    """Expected entropy of C under the conditional measures given D's classes."""
    if not is_probability(mu):
        raise ValueError("conditional entropy is defined for probability measures")
    if not (c.is_partition and d.is_partition):
        raise ValueError("conditional entropy needs partitions")
    # One mass per class of the join, i.e. per (C class, D class) pair in
    # (C, D) order, so each D mass sums its pairs in C's class order, as a
    # column sum of the dense C x D matrix would, and gets the same bytes.
    cells = join(c, d)
    joint = np.bincount(cells.atoms, weights=mu.weights, minlength=cells.count)
    d_of = np.empty(cells.count, dtype=np.int64)
    d_of[cells.atoms] = d.atoms
    d_mass = np.bincount(d_of, weights=joint, minlength=d.count)[d_of]
    return math.fsum(
        p * math.log(dm / p) for p, dm in zip(joint.tolist(), d_mass.tolist()) if p > 0.0
    )


def member_states(fam: SetFamily, i: int) -> list[int]:
    """The states of member i, in increasing order."""
    rows = fam.incidence
    held = fam.atoms == i if rows is None else rows[i][fam.atoms]
    return np.flatnonzero(held).tolist()


def torus_shift(p, q):
    """The two-symbol full shift on the p x q torus (bit q*i + j holds the
    symbol at (i, j)), and the state numbers."""
    sys = make_full_shift_torus(2, (p, q))
    return sys, np.arange(sys.state_count, dtype=np.int64)


def product_measure(symbols, period, p):
    """The product measure of symbol law p on `make_full_shift_torus(symbols,
    period)`, each site's symbol read off the state number as its digit."""
    x = np.arange(symbols ** math.prod(period))
    weights = np.ones(x.size)
    for site in range(math.prod(period)):
        weights *= np.asarray(p, dtype=float)[x // symbols**site % symbols]
    return FiniteMeasure(weights)


def overlap_cover(x):
    """The overlapping cover {x00 = 0}, {x00 = 1}, {x00 = x01}."""
    x00, x01 = x & 1, (x >> 1) & 1
    return SetFamily.from_state_sets(
        x.size, [np.flatnonzero(x00 == 0), np.flatnonzero(x00 == 1), np.flatnonzero(x00 == x01)]
    )


def brute_decompose(n, q, k):
    """Corners and residue of `lattice.decompose(n, q, k)` as point sets, by
    exhaustive enumeration straight from the definitions."""
    box_n = set(itertools.product(*(range(c) for c in n)))
    # Points congruent to k mod q, scanning everything below n.
    corners = set()
    for p in box_n:
        if any((pc - kc) % qc != 0 or pc < kc for pc, kc, qc in zip(p, k, q)):
            continue
        tile = {
            tuple(pc + tc for pc, tc in zip(p, t))
            for t in itertools.product(*(range(c) for c in q))
        }
        if tile <= box_n:
            corners.add(p)
    covered = set()
    for p in corners:
        for t in itertools.product(*(range(c) for c in q)):
            covered.add(tuple(pc + tc for pc, tc in zip(p, t)))
    return corners, box_n - covered
