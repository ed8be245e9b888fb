"""Closed forms for the full shift with a single-site potential.

The pressure is log sum_k e^phi(k), and the product measure of symbol law
p*, p*_k proportional to e^phi(k), attains it.  Both are written straight
from the definitions and call nothing else in the package, which makes
them the yardstick of the `fullshift` experiment: it runs the machinery on
the full shift over a torus (`dynsys.make_full_shift_torus`), where on boxes
no larger than the period every window pattern is one class of the box
join of the origin partition, so the four values and the entropy of the
product measure must meet these forms there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    return shift + math.log(math.fsum(math.exp(v - shift) for v in spec.site_potential))


def gibbs_optimizer(spec: FullShiftSpec) -> tuple[float, ...]:
    """The symbol law p* of the product measure that maximizes pressure.

    It weighs each symbol in proportion to its exponentiated potential; its
    entropy plus expected site potential is the exact pressure.
    """
    shift = max(spec.site_potential)
    raw = [math.exp(v - shift) for v in spec.site_potential]
    total = math.fsum(raw)
    return tuple(v / total for v in raw)
