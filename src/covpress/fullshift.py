"""Closed-form pressure oracle: the full shift with a single-site potential.

Independent of every solver in the package: pressure, the box partition
function, and the optimizing product measure are all available in closed
form, which is what makes this a trustworthy yardstick for the variational
machinery.  The shift is treated purely symbolically (configurations on a
finite box), so the oracle depends on none of the machinery it checks.  A
finite stand-in exists: the configurations on a torus under the unit shifts
form a FiniteSystem, and on boxes no larger than the period every window
pattern is exactly one cell of the box join of the origin partition, so
cylinder counts and sums there equal this module's.  Only beyond the period
do patterns repeat and the counts saturate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from covpress.lattice import Coords, as_point, box_cardinality

CYLINDER_BUDGET = 3**9


@dataclass(frozen=True)
class FullShiftSpec:
    """Symbols 0..k-1 in dimension `dim` with one potential value per symbol."""

    symbols: int
    dim: int
    site_potential: tuple[float, ...]

    def __post_init__(self):
        if self.symbols < 1:
            raise ValueError("need at least one symbol")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        phi = tuple(float(v) for v in self.site_potential)
        if len(phi) != self.symbols:
            raise ValueError("one potential value per symbol required")
        if any(not math.isfinite(v) for v in phi):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "site_potential", phi)


def exact_pressure(spec: FullShiftSpec) -> float:
    """log of the summed exponentiated site potential."""
    shift = max(spec.site_potential)
    return shift + math.log(
        math.fsum(math.exp(v - shift) for v in spec.site_potential)
    )


def cylinders_fit(symbols: int, lam: int) -> bool:
    """True when the symbols**lam configurations of a box of lam sites fit
    CYLINDER_BUDGET.  A lam over the budget is refused before the power is
    taken: with two or more symbols it cannot fit, and with one symbol the
    cap bounds the lam factors its single configuration multiplies."""
    return lam <= CYLINDER_BUDGET and symbols**lam <= CYLINDER_BUDGET


def cylinder_sum(spec: FullShiftSpec, n: Coords) -> float:
    """Partition function over all symbol configurations on the box below n.

    Enumerates k**lambda(n) configurations, so the box is capped by CYLINDER_BUDGET;
    the result must agree with the closed form (sum of site factors raised
    to the box size), which the tests pin down.
    """
    n = as_point(n, dim=spec.dim)
    lam = box_cardinality(n)
    if not cylinders_fit(spec.symbols, lam):
        raise ValueError(f"{spec.symbols}**{lam} configurations exceed budget {CYLINDER_BUDGET}")
    site_factors = [math.exp(v) for v in spec.site_potential]
    total = math.fsum(
        math.prod(site_factors[s] for s in config)
        for config in itertools.product(range(spec.symbols), repeat=lam)
    )
    return total


def bernoulli_pressure(spec: FullShiftSpec, p: Sequence[float]) -> float:
    """Entropy of the symbol distribution plus its expected site potential."""
    probs = [float(v) for v in p]
    if len(probs) != spec.symbols:
        raise ValueError("one probability per symbol required")
    if any(v < 0 for v in probs) or abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ValueError("p must be a probability vector")
    entropy = math.fsum(-v * math.log(v) for v in probs if v > 0)
    mean = math.fsum(v * phi for v, phi in zip(probs, spec.site_potential))
    return entropy + mean


def gibbs_optimizer(spec: FullShiftSpec) -> tuple[tuple[float, ...], float]:
    """The product measure maximizing pressure and its value.

    The optimum weights each symbol proportionally to its exponentiated
    potential, and its value matches the exact pressure.
    """
    shift = max(spec.site_potential)
    raw = [math.exp(v - shift) for v in spec.site_potential]
    total = math.fsum(raw)
    p_star = tuple(v / total for v in raw)
    return p_star, bernoulli_pressure(spec, p_star)
