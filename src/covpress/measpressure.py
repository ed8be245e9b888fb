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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from covpress.coveralg import (
    SetFamily,
    box_join,
    box_sweep,
    classify_admissible_partition,
    join,
    preimage_family,
    refines,
)
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_field,
    cycle_structure,
    iter_box_maps,
    power_map,
)
from covpress.lattice import Coords, as_point, box_cardinality, diagonal, sym_diff_cardinality
from covpress.solvers import STATUS_EXACT
from covpress.toppressure import PressureEstimate, PressureSample, rate_sequence

INVARIANCE_TOL = 1e-9
PROBABILITY_TOL = 1e-9
EXHAUSTIVE_STATE_CAP = 8


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
        object.__setattr__(self, "mass", float(math.fsum(w.tolist())))

    @classmethod
    def dirac(cls, x: int, m: int) -> "FiniteMeasure":
        w = np.zeros(m)
        w[x] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, m: int) -> "FiniteMeasure":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def uniform_on(cls, states: Iterable[int], m: int) -> "FiniteMeasure":
        states = list(states)
        w = np.zeros(m)
        w[states] = 1.0 / len(states)
        return cls(w)

    def scaled(self, alpha: float) -> "FiniteMeasure":
        if alpha < 0:
            raise ValueError("scaling factor must be non-negative")
        return FiniteMeasure(self.weights * alpha)

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        return abs(self.mass - 1.0) <= tol

    def integrate(self, f: Potential) -> float:
        return float(math.fsum((self.weights * f.values).tolist()))


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


def is_invariant(mu: FiniteMeasure, sys: FiniteSystem, tol: float = INVARIANCE_TOL) -> bool:
    """Invariance under every generator, up to tol in total variation."""
    for axis in range(sys.dim):
        k = tuple(1 if a == axis else 0 for a in range(sys.dim))
        if variation_distance(pushforward(mu, sys, k), mu) > tol:
            return False
    return True


def invariant_cycle_mixture(sys: FiniteSystem, rng: np.random.Generator, mass: float = 1.0) -> FiniteMeasure:
    """Random invariant measure: a mixture of uniform cycle measures."""
    cycles = cycle_structure(sys, Potential.constant(0.0, sys.state_count))
    coeffs = rng.dirichlet(np.ones(len(cycles))) * mass
    w = np.zeros(sys.state_count)
    for (states, _), c in zip(cycles, coeffs):
        w[list(states)] += c / len(states)
    return FiniteMeasure(w)


def partition_entropy(mu: FiniteMeasure, family: SetFamily) -> float:
    """Entropy of a partition for a finite (not necessarily unit-mass) measure."""
    if not family.is_partition:
        raise ValueError("partition entropy needs a partition")
    masses = np.bincount(family.atoms, weights=mu.weights, minlength=family.count)
    # One libm log per distinct mass, its term repeated once per class of
    # that mass: `fsum` is exact, so this is the float of the class-by-class
    # sum.  The runs of equal masses are found in place, without the copy
    # that np.unique makes.
    masses.sort()
    starts = np.flatnonzero(np.r_[True, masses[1:] != masses[:-1]][: len(masses)])
    counts = np.diff(starts, append=len(masses)).tolist()
    terms = [(-v * math.log(v), c) for v, c in zip(masses[starts].tolist(), counts) if v > 0.0]
    return math.fsum(itertools.chain.from_iterable(itertools.starmap(itertools.repeat, terms)))


def conditional_entropy(mu: FiniteMeasure, c: SetFamily, d: SetFamily) -> float:
    """Expected entropy of C under the conditional measures given D's classes."""
    if not mu.is_probability():
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


def _is_join_stable(sys: FiniteSystem, family: SetFamily) -> bool:
    """True when pulling back through every generator refines nothing more."""
    if family.count == sys.state_count:
        return True  # one class per state: nothing left to refine
    for axis in range(sys.dim):
        k = tuple(1 if a == axis else 0 for a in range(sys.dim))
        if join(family, preimage_family(sys, family, k)).count != family.count:
            return False
    return True


def entropy_rate(
    mu: FiniteMeasure,
    sys: FiniteSystem,
    family: SetFamily,
    n_max: int,
    check_invariance: bool = True,
    member_budget: int = 10**6,
) -> PressureEstimate:
    """Entropy of the orbit join per box point, sampled along the diagonal.

    The running minimum of the sampled rates is a valid upper bound for the
    limit (the subdivision argument behind the existence of the limit), and
    once the join is stable under every generator preimage the limit itself
    is zero: the joined entropy is stuck at a constant while the box grows.
    """
    if not family.is_partition:
        raise ValueError("entropy rates are defined for partitions")
    if check_invariance and not is_invariant(mu, sys):
        raise ValueError("measure is not invariant within tolerance")
    samples = []
    stable = False
    sweep = box_sweep(sys, family, None, diagonal(n_max, sys.dim), member_budget)
    for n, joined, _ in sweep:
        h = partition_entropy(mu, joined)
        samples.append(PressureSample(n, box_cardinality(n), h, STATUS_EXACT))
        stable = stable or _is_join_stable(sys, joined)
    est = rate_sequence(samples, "H")
    exact_rates = [s.rate for s in samples]
    est.fekete_bound = min(exact_rates)
    if stable:
        # Joined entropy is constant from here on, so the rate limit is zero.
        est.extrapolated = 0.0
    return est


def _iter_set_partitions(items: Sequence[int]):
    """All set partitions, in a deterministic refinement order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _iter_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def ks_entropy(
    mu: FiniteMeasure,
    sys: FiniteSystem,
    strategy: str = "fixed",
    partition: SetFamily | None = None,
    state_cap: int = EXHAUSTIVE_STATE_CAP,
    n_max: int = 16,
) -> float:
    """Entropy of the system: the best partition entropy rate.

    strategy "fixed" rates the given partition; "exhaustive" sweeps every set
    partition of the states (capped, the count is a Bell number);
    "admissible_only" keeps the partitions with at most one class touching
    the marked states.  Deterministic finite maps always certify a zero
    limit, so the strategies mostly exercise that the restriction to
    admissible partitions loses nothing.
    """
    if strategy == "fixed":
        fam = partition if partition is not None else SetFamily.singletons(sys.state_count)
        return entropy_rate(mu, sys, fam, n_max).extrapolated
    if strategy not in ("exhaustive", "admissible_only"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if sys.state_count > state_cap:
        raise ValueError(
            f"{strategy} strategy enumerates set partitions; "
            f"state count {sys.state_count} exceeds cap {state_cap}"
        )
    best = 0.0
    for blocks in _iter_set_partitions(list(range(sys.state_count))):
        fam = SetFamily.from_state_sets(sys.state_count, blocks, kind="partition")
        if strategy == "admissible_only":
            if not classify_admissible_partition(sys, fam).is_admissible_partition:
                continue
        best = max(best, entropy_rate(mu, sys, fam, n_max).extrapolated)
    return best


def measure_pressure(
    mu: FiniteMeasure,
    sys: FiniteSystem,
    f: Potential,
    strategy: str = "fixed",
    partition: SetFamily | None = None,
) -> float:
    """Entropy plus the integral of the potential."""
    if not is_invariant(mu, sys):
        raise ValueError("measure is not invariant within tolerance")
    h = ks_entropy(mu, sys, strategy=strategy, partition=partition)
    return h + mu.integrate(f)


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
    grows.  Both are probabilities.
    """
    n = as_point(n, dim=sys.dim)
    return _empirical_measures(sys, n, birkhoff_field(sys, f, n), separated)


def _empirical_measures(
    sys: FiniteSystem, n: Coords, f_field: np.ndarray, separated: Sequence[int]
) -> EmpiricalMeasures:
    """`empirical_measures` given the ergodic field at box n, so a caller
    that already walked the box does not walk it again for the field."""
    if not separated:
        raise ValueError("need a nonempty state set")
    lam = box_cardinality(n)
    chosen = sorted(int(x) for x in separated)
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
    for _, tk in iter_box_maps(sys, n):
        avg += np.bincount(tk[np.asarray(chosen)], weights=sigma.weights[chosen], minlength=sys.state_count)
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
    tol: float = 1e-9,
    member_budget: int = 10**6,
) -> SeparatedLinkReport:
    """Verify log-normalizer = joined-partition entropy + ergodic integral.

    Applicable only when `refining` is a partition refining the cover whose
    box join isolates the separated states (at most one per class); then the
    sigma masses are exactly the normalized weights and the identity is an
    algebraic fact that must hold to float precision.  Also checks that
    integrating the box sum against sigma equals integrating the potential
    against the averaged measure, scaled by the box size.
    """
    if not refining.is_partition or not refines(refining, cover):
        return SeparatedLinkReport(False, None, None, math.nan, math.nan, math.nan)
    n = as_point(n, dim=sys.dim)
    lam = box_cardinality(n)
    joined, f_field = box_join(sys, refining, f, n, member_budget)
    labels = joined.as_labels()
    chosen = sorted(int(x) for x in separated)
    cell_of = [int(labels[x]) for x in chosen]
    if len(set(cell_of)) != len(cell_of):
        return SeparatedLinkReport(False, None, None, math.nan, math.nan, math.nan)
    emp = _empirical_measures(sys, n, f_field, chosen)
    entropy_term = partition_entropy(emp.sigma, joined)
    integral_term = float(math.fsum((emp.sigma.weights * f_field).tolist()))
    identity = abs(emp.log_normalizer - (entropy_term + integral_term)) <= tol * max(
        1.0, abs(emp.log_normalizer)
    )
    transport = abs(integral_term / lam - emp.averaged.integrate(f)) <= tol
    return SeparatedLinkReport(
        applicable=True,
        identity_holds=bool(identity),
        transport_holds=bool(transport),
        log_normalizer=emp.log_normalizer,
        entropy_term=entropy_term,
        integral_term=integral_term,
    )
