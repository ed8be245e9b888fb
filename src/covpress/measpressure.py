"""Finite measures, entropy, measure pressure and the lower-bound construction.

Measures are non-negative weight vectors with arbitrary finite total mass,
the correctly rounded sum of the weights, computed when it is read;
partition entropy uses the 0 * log(1/0) = 0 convention and stays meaningful
for non-probability masses.  Entropy rates are sampled along the diagonal
into a `PressureEstimate`, which holds the samples alone: their limit is
stated, not extrapolated.  A join of M states has at most M classes, so
its entropy is bounded by a constant of the measure and M, and the rate per
box point tends to zero on every finite system.  So the entropy of a system
is 0, and measure pressure is the integral of the potential, exactly.

The module also houses the empirical measures of the variational lower-bound
construction (the weighted sum of orbit Diracs over a separated set and its
box average) together with their invariance-defect bound and the entropy
identity that links separated sums to partition entropy.

Class and image sums are `np.add.at` into zeros: `np.bincount` copies the
read-only weights, atoms and generators, and both add in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from covpress.coveralg import SetFamily, box_join, box_sweep, refines, state_field
from covpress.dynsys import (
    FiniteSystem, Potential, birkhoff_field, checked_states, iter_box_pullbacks, power_map
)
from covpress.lattice import Coords, EmptyBoxError, as_point, box_cardinality, diagonal, sym_diff_cardinality
from covpress.solvers import STATUS_EXACT, fsum_terms
from covpress.toppressure import PressureSample

INVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMeasure:
    """Non-negative weight per state; `mass`, their total, is summed when read."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("measure weights must be a flat array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("measure weights must be finite and non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def mass(self) -> float:
        return fsum_terms(self.weights, float)

    @classmethod
    def uniform_on(cls, states: Iterable[int], m: int) -> "FiniteMeasure":
        """The probability with equal weights on distinct states of 0..m-1."""
        states = _distinct_states(states, m)
        w = np.zeros(m)
        w[states] = 1.0 / len(states)
        return cls(w)

    def scaled(self, alpha: float) -> "FiniteMeasure":
        if alpha < 0:
            raise ValueError("scaling factor must be non-negative")
        return FiniteMeasure(self.weights * alpha)

    def integrate(self, f: Potential) -> float:
        if len(f.values) != len(self.weights):
            raise ValueError(f"the potential has {len(f.values)} values, the measure {len(self.weights)} states")
        return float(math.fsum((self.weights * f.values).tolist()))


def _distinct_states(states: Iterable[int], m: int) -> list[int]:
    """The sorted states; a ValueError if none, or naming one repeated or outside 0..m-1."""
    chosen = np.sort(checked_states(states, m))
    if not len(chosen):
        raise ValueError("need a nonempty state set")
    repeated = chosen[1:][chosen[1:] == chosen[:-1]]
    if len(repeated):
        raise ValueError(f"state {repeated[0]} is repeated")
    return chosen.tolist()


def pushforward(mu: FiniteMeasure, sys: FiniteSystem, k: Coords) -> FiniteMeasure:
    """Image measure: the new weight of y sums the weights of its preimages."""
    if len(mu.weights) != sys.state_count:
        raise ValueError("measure does not live on this system")
    tk = power_map(sys, k)
    w = np.zeros(sys.state_count)
    np.add.at(w, tk, mu.weights)
    return FiniteMeasure(w)


def variation_distance(a: FiniteMeasure, b: FiniteMeasure) -> float:
    """Total-variation norm of the difference, i.e. the plain L1 distance."""
    return float(math.fsum(np.abs(a.weights - b.weights).tolist()))


def is_invariant(mu: FiniteMeasure, sys: FiniteSystem) -> bool:
    """Invariance under every generator, up to INVARIANCE_TOL in total variation.

    The same test as `variation_distance(pushforward(mu, sys, k), mu) > INVARIANCE_TOL`
    per generator k, without building the image measures.
    """
    if len(mu.weights) != sys.state_count:
        raise ValueError("measure does not live on this system")
    image = np.empty(sys.state_count)
    for g in sys.generators:  # each generator is its unit step's power map
        image.fill(0.0)
        np.add.at(image, g, mu.weights)
        image -= mu.weights
        if fsum_terms(np.abs(image, out=image), float) > INVARIANCE_TOL:
            return False
    return True


def partition_entropy(mu: FiniteMeasure, family: SetFamily) -> float:
    """Entropy of a partition for a finite (not necessarily unit-mass) measure.

    The terms -m log m of the classes of mass m > 0 are added by
    `fsum_terms`: the float of the class-by-class `fsum`.  A measure without
    one weight per state of the partition raises a ValueError.
    """
    if not family.is_partition:
        raise ValueError("partition entropy needs a partition")
    if len(mu.weights) != family.state_count:
        raise ValueError(f"the measure has {len(mu.weights)} states, the partition {family.state_count}")
    masses = np.zeros(family.count)
    np.add.at(masses, family.atoms, mu.weights)
    return fsum_terms(masses[masses > 0.0], lambda v: -v * math.log(v))


@dataclass
class PressureEstimate:
    """The entropy rates of one partition along the diagonal; their limit is 0 (`entropy_rate`)."""

    samples: list[PressureSample]


def entropy_rate(
    mu: FiniteMeasure, sys: FiniteSystem, family: SetFamily, n_max: int
) -> PressureEstimate:
    """Entropy of the orbit join per box point along the diagonal, for a mu that `is_invariant`.

    Every sampled rate is an upper bound for the limit (the subdivision
    argument behind the existence of the limit), and the limit is 0: the
    join of M = `sys.state_count` states has at most M classes, so for mu of
    mass c its entropy lies between -c log c and c log(M / c) at every box,
    and divided by the box size it tends to 0.  The sweep's budget is the
    state count, which no partition's join exceeds.
    """
    if not family.is_partition:
        raise ValueError("entropy rates are defined for partitions")
    if not is_invariant(mu, sys):
        raise ValueError("measure is not invariant within tolerance")
    if n_max < 1:
        raise ValueError("need at least one sample")
    samples = []
    sweep = box_sweep(sys, family, None, diagonal(n_max, sys.dim), sys.state_count)
    for n, joined, _ in sweep:
        h = partition_entropy(mu, joined)
        samples.append(PressureSample(n, box_cardinality(n), h, STATUS_EXACT))
    return PressureEstimate(samples)


def ks_entropy(mu: FiniteMeasure, sys: FiniteSystem) -> float:
    """Entropy of the system, for a mu that `is_invariant`: the entropy rate
    of the singleton partition, which refines every other partition.

    The singleton partition is its own orbit join at every box, so its
    joined entropy is the constant H(mu) and the rate H(mu) / |n| tends to
    0; no join is built.
    """
    if not is_invariant(mu, sys):
        raise ValueError("measure is not invariant within tolerance")
    return 0.0


def measure_pressure(mu: FiniteMeasure, sys: FiniteSystem, f: Potential) -> float:
    """Entropy plus the integral of the potential (`ks_entropy` checks invariance)."""
    return ks_entropy(mu, sys) + mu.integrate(f)


# -- the lower-bound construction ----------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasures:
    sigma: FiniteMeasure
    averaged: FiniteMeasure
    log_normalizer: float


def empirical_measures(
    sys: FiniteSystem, f: Potential, n: Coords, separated: Sequence[int]
) -> EmpiricalMeasures:
    """Orbit-weighted Dirac mixture over a separated set and its box average.

    sigma weighs each chosen state by the exponentiated ergodic sum
    (normalized); the averaged measure pushes sigma through every box power
    and averages, which is what converges to an invariant measure as the box
    grows.  Both are probabilities; `separated` holds distinct states.
    """
    n = as_point(n, dim=sys.dim)
    chosen = _distinct_states(separated, sys.state_count)
    return _empirical_measures(sys, n, birkhoff_field(sys, f, n), chosen)


def _empirical_measures(
    sys: FiniteSystem, n: Coords, f_field: np.ndarray, chosen: list[int]
) -> EmpiricalMeasures:
    """`empirical_measures` of sorted distinct states given the ergodic field
    at box n, so a caller that already walked the box does not walk it again."""
    lam = box_cardinality(n)
    vals = [float(f_field[x]) for x in chosen]
    shift = max(vals)
    scaled = [math.exp(v - shift) for v in vals]
    total = math.fsum(scaled)
    log_normalizer = shift + math.log(total)
    sigma_w = np.zeros(sys.state_count)
    for x, s in zip(chosen, scaled):
        sigma_w[x] = s / total
    sigma = FiniteMeasure(sigma_w)

    avg = np.zeros(sys.state_count)
    idx = np.asarray(chosen)
    weights = sigma.weights[idx]
    for _, (tk,) in iter_box_pullbacks(sys, n, (np.arange(sys.state_count),)):
        # Sum over the distinct images only; bincount adds each one's weights in chosen order.
        images, inverse = np.unique(tk[idx], return_inverse=True)
        avg[images] += np.bincount(inverse, weights=weights)
    averaged = FiniteMeasure(avg / lam)
    return EmpiricalMeasures(sigma=sigma, averaged=averaged, log_normalizer=log_normalizer)


def invariance_defect(
    averaged: FiniteMeasure, sys: FiniteSystem, n: Coords, m: Coords
) -> tuple[float, float]:
    """Defect of the averaged empirical measure under the power-m map.

    Returns (defect, bound): the total-variation distance to its pushforward
    and the symmetric-difference bound it is guaranteed to respect.
    """
    n = as_point(n, dim=sys.dim)
    m = as_point(m, dim=sys.dim)
    if 0 in n:
        raise EmptyBoxError(f"box {n} is empty")
    defect = variation_distance(pushforward(averaged, sys, m), averaged)
    bound = sym_diff_cardinality(n, m) / box_cardinality(n) * averaged.mass
    return defect, bound


@dataclass(frozen=True)
class SeparatedLinkReport:
    applicable: bool
    identity_holds: bool | None
    transport_holds: bool | None
    log_normalizer: float
    entropy_term: float
    integral_term: float


def separated_entropy_link_check(
    sys: FiniteSystem,
    f: Potential,
    cover: SetFamily,
    n: Coords,
    separated: Sequence[int],
    refining: SetFamily,
) -> SeparatedLinkReport:
    """Verify log-normalizer = joined-partition entropy + ergodic integral.

    Applicable only when `refining` is a partition refining the cover whose
    box join isolates the separated states (at most one per class; a state
    repeated or out of range raises); then the sigma masses are exactly the
    normalized weights and the identity is an algebraic fact that must hold
    to float precision, 1e-9 relative to the log-normalizer past 1.  Also
    checks that integrating the box sum against sigma equals integrating the
    potential against the averaged measure, scaled by the box size, within
    1e-9.  The join is budgeted at the state count.
    """
    chosen = _distinct_states(separated, sys.state_count)
    if not refining.is_partition or not refines(refining, cover):
        return SeparatedLinkReport(False, None, None, math.nan, math.nan, math.nan)
    n = as_point(n, dim=sys.dim)
    lam = box_cardinality(n)
    joined, f_field = box_join(sys, refining, f, n, sys.state_count)
    f_field = state_field(joined, f_field)
    labels = joined.as_labels()
    cell_of = [int(labels[x]) for x in chosen]
    if len(set(cell_of)) != len(cell_of):
        return SeparatedLinkReport(False, None, None, math.nan, math.nan, math.nan)
    emp = _empirical_measures(sys, n, f_field, chosen)
    entropy_term = partition_entropy(emp.sigma, joined)
    integral_term = float(math.fsum((emp.sigma.weights * f_field).tolist()))
    gap = abs(emp.log_normalizer - (entropy_term + integral_term))
    identity = gap <= 1e-9 * max(1.0, abs(emp.log_normalizer))
    transport = abs(integral_term / lam - emp.averaged.integrate(f)) <= 1e-9
    return SeparatedLinkReport(
        applicable=True,
        identity_holds=bool(identity),
        transport_holds=bool(transport),
        log_normalizer=emp.log_normalizer,
        entropy_term=entropy_term,
        integral_term=integral_term,
    )
