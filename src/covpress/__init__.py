"""Pressure of commuting lattice actions on finite and discretized spaces.

The package computes the four cover-based pressure quantities (weighted
minimal subcovers, separated and spanning sums), measure-theoretic pressure,
and the admissibility bookkeeping that keeps boundary complexity from leaking
into the numbers.  See README.md for the experiment drivers.

Only the names of README's library sketch are re-exported here; everything
else is imported from its module (`covpress.coveralg`, `covpress.dynsys`, ...).
"""

from covpress.coveralg import SetFamily
from covpress.dynsys import Potential, make_circle_doubling
from covpress.toppressure import pressure_quadruple

__all__ = ["Potential", "SetFamily", "make_circle_doubling", "pressure_quadruple"]

__version__ = "0.1.0"
