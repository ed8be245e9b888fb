"""Finite measures, entropy, measure pressure and the lower-bound construction.

Measures are non-negative weight vectors with arbitrary finite total mass;
partition entropy uses the 0 * log(1/0) = 0 convention and stays meaningful
for non-probability masses.  Entropy rates are sampled along the diagonal
and certified at their limit where possible: on a finite deterministic
system every orbit join stops refining, the entropy of the join is then
constant, and the normalized rate provably tends to zero.  That certificate
is what makes measure pressure exact here instead of an extrapolation.

The module also houses the empirical measures of the variational lower-bound
construction (the weighted sum of orbit Diracs over a separated set and its
box average) together with their invariance-defect bound and the entropy
identity that links separated sums to partition entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from covpress.coveralg import SetFamily, box_join, box_sweep, is_join_stable, refines, state_field
from covpress.dynsys import (
    FiniteSystem, Potential, birkhoff_field, checked_states, iter_box_pullbacks, power_map
)
from covpress.lattice import Coords, EmptyBoxError, as_point, box_cardinality, diagonal, sym_diff_cardinality
from covpress.solvers import STATUS_EXACT, counted_fsum
from covpress.toppressure import PressureEstimate, PressureSample, rate_sequence

INVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMeasure:
    """Non-negative weight per state; mass is the cached total."""

    weights: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("measure weights must be a flat array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("measure weights must be finite and non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mass", counted_fsum(*np.unique(w, return_counts=True)))

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
    w = np.bincount(tk, weights=mu.weights, minlength=sys.state_count)
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
    for g in sys.generators:  # each generator is its unit step's power map
        image = np.bincount(g, weights=mu.weights, minlength=sys.state_count)
        # Mostly zeros for an invariant measure: each distinct one is added once.
        defect = counted_fsum(*np.unique(np.abs(image - mu.weights), return_counts=True))
        if defect > INVARIANCE_TOL:
            return False
    return True


def partition_entropy(mu: FiniteMeasure, family: SetFamily) -> float:
    """Entropy of a partition for a finite (not necessarily unit-mass) measure.

    One libm log per distinct class mass, its term added once with the
    number of classes of that mass by `counted_fsum`: the float of the
    class-by-class `fsum`.
    """
    if not family.is_partition:
        raise ValueError("partition entropy needs a partition")
    masses = np.bincount(family.atoms, weights=mu.weights, minlength=family.count)
    # The runs of equal masses are found in place, without the copy that
    # np.unique makes.
    masses.sort()
    starts = np.flatnonzero(np.r_[True, masses[1:] != masses[:-1]][: len(masses)])
    counts = np.diff(starts, append=len(masses))
    distinct = masses[starts]
    held = distinct > 0.0
    return counted_fsum([-v * math.log(v) for v in distinct[held].tolist()], counts[held])


def entropy_rate(
    mu: FiniteMeasure, sys: FiniteSystem, family: SetFamily, n_max: int
) -> PressureEstimate:
    """Entropy of the orbit join per box point along the diagonal, for a mu that `is_invariant`.

    Every sampled rate is an upper bound for the limit (the subdivision
    argument behind the existence of the limit), and once the join is stable
    under every generator preimage the limit itself is zero: the joined
    entropy is stuck at a constant while the box grows.
    A join stable at some depth equals the join at every deeper one, so the
    last join is stable exactly when any was, and only it is tested.  The
    sweep's budget is the state count, which no partition's join exceeds.
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
    est = rate_sequence(samples)
    if is_join_stable(sys, joined):
        # Joined entropy is constant from here on, so the rate limit is zero.
        est.extrapolated = 0.0
    return est


def ks_entropy(mu: FiniteMeasure, sys: FiniteSystem) -> float:
    """Entropy of the system: the entropy rate of the singleton partition,
    which refines every other partition.  Its join is stable from the
    first box on, so one depth certifies the zero limit."""
    return entropy_rate(mu, sys, SetFamily.singletons(sys.state_count), 1).extrapolated


def measure_pressure(mu: FiniteMeasure, sys: FiniteSystem, f: Potential) -> float:
    """Entropy plus the integral of the potential (`entropy_rate` checks invariance)."""
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
