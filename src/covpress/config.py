"""Experiment configuration: defaults, key=value files, CLI overrides.

The config file format is one `key = value` pair per line, `#` starts a
comment.  Unknown keys are rejected so typos cannot silently fall back to
defaults, and so are keys the chosen experiment does not read.  Every
randomized choice is pinned by `seed`, which must be non-negative; budgets
must be positive, the leakage geometry (rings, sectors, bands, slices) must
fit the disk grid, `slices` must be at least 2 so the pizza cover stays
non-admissible, leakage needs two depths, the deep box 2**deep_exponent
and lattice-check's largest box, n_max on three axes, must fit in 64 bits,
and finite-vp needs `max_states` >= 2.  The doubling size and potential
(with the level grid its run builds for a potential that is not constant
on each arc), and the full shift, go through the checks their runs make, so
a bad value fails at load time rather than mid-run, as does a full shift
with more symbols than the member budget, which no torus fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from covpress.coveralg import DEFAULT_MEMBER_BUDGET, SetFamily, atom_values, check_level_grid
from covpress.dynsys import Potential, check_doubling_size, potential_from_spec
from covpress.fullshift import FullShiftSpec
from covpress.lattice import MAX_CARDINALITY

EXPERIMENTS = ("lattice-check", "doubling", "leakage", "finite-vp", "fullshift")

# Per-experiment defaults; anything not listed falls back to the dataclass
# default.
_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "doubling": {"n_max": 14},
    "leakage": {"n_max": 12},
    "finite-vp": {"n_max": 8},
    "fullshift": {"n_max": 4},
    "lattice-check": {"n_max": 24},
}

# The keys each experiment reads, besides the ones every experiment accepts.
# `doubling` and `leakage` draw nothing at random, but they accept `seed`
# so one command line can drive every experiment.
_COMMON_KEYS = {"n_max", "seed", "out", "svg"}
_EXPERIMENT_KEYS: dict[str, set[str]] = {
    "doubling": {"m", "potential", "exact_limit", "member_budget"},
    "leakage": {
        "rings", "sectors", "member_budget", "slices", "euclid_eps", "euclid_band", "annulus_rings"
    },
    "finite-vp": {"seeds", "max_states", "deep_exponent"},
    "lattice-check": {"cases"},
    "fullshift": {"symbols", "dim", "phi"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    # doubling system
    m: int = 100003
    # disk grid
    rings: int = 64
    sectors: int = 256
    # potential: constant:<c> | arc:<a> | values:<v1,v2,...>
    potential: str = "constant:0"
    # budgets and seeding
    n_max: int = 8
    exact_limit: int | None = None
    # the join budget, read by `doubling` and `leakage`
    member_budget: int = DEFAULT_MEMBER_BUDGET
    seed: int = 0
    # lattice-check / finite-vp sweep sizes
    cases: int = 1000
    seeds: int = 50
    max_states: int = 12
    # full shift
    symbols: int = 2
    dim: int = 2
    phi: str = "0,0.37"
    # leakage geometry
    slices: int = 2
    euclid_eps: float = 0.04
    euclid_band: int = 8
    annulus_rings: int = 16
    # finite-vp deep evaluation depth (box size 2**deep_exponent)
    deep_exponent: int = 30
    # output
    out: str = "out"
    svg: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("n_max", "member_budget", "cases", "seeds", "deep_exponent"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            # numpy refuses a negative seed only once the run draws from it.
            raise ValueError("seed must be non-negative")
        if self.experiment == "leakage" and self.n_max < 2:
            # The admissible verdict reads a tail slope over the last two depths.
            raise ValueError("leakage needs n_max >= 2")
        if self.experiment == "lattice-check" and self.n_max**3 > MAX_CARDINALITY:
            # The largest box drawn has three sides of n_max.
            raise ValueError(f"lattice-check needs n_max**3 < 2**63, got n_max = {self.n_max}")
        if self.deep_exponent > 62:
            # A box of 2**63 points leaves the 64-bit cardinality range.
            raise ValueError("deep_exponent must be at most 62")
        if self.exact_limit is not None and self.exact_limit <= 0:
            raise ValueError("exact_limit must be positive")
        if not (self.euclid_eps > 0 and math.isfinite(self.euclid_eps)):
            raise ValueError("euclid_eps must be positive and finite")
        for name in ("rings", "sectors"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("euclid_band", "annulus_rings"):
            if not 1 <= getattr(self, name) <= self.rings:
                raise ValueError(f"{name} must be between 1 and rings = {self.rings}")
        if self.slices < 2 or self.sectors % self.slices:
            # One slice holds the whole marked ring, so the pizza cover
            # would be admissible.
            raise ValueError(f"slices must be a divisor of sectors = {self.sectors}, at least 2")
        if self.max_states < 2:
            # finite-vp draws systems of 2..max_states states.
            raise ValueError("max_states must be at least 2")
        # The run's own checks of the values it builds from.
        if self.experiment == "doubling":
            check_doubling_size(self.m)
            if self.potential.startswith("values:"):
                # `constant` and `arc` are constant on each arc, so only a
                # values list can need the level grid; the others skip the arcs.
                self.doubling_inputs()
            else:
                potential_from_spec(self.potential, self.m, arc_states=())
        if self.experiment == "fullshift":
            self.fullshift_spec()
            self.fullshift_period()

    def doubling_inputs(self) -> tuple[SetFamily, Potential, float | None]:
        """The `doubling` run's half-circle arcs, its potential, and the eps
        of the potential-level cover joined onto the arcs: half the spread,
        at least 5e-10, or None when the potential is constant on each arc,
        as `constant` and `arc` potentials are, for then every level member
        is a union of arcs and the join is the arcs.  An eps whose level
        grid floats cannot resolve is refused here, by the cover's own check.
        """
        split = (self.m + 1) // 2
        f = potential_from_spec(self.potential, self.m, arc_states=range(split, self.m))
        arcs = SetFamily.from_labels(np.arange(self.m) >= split)
        if atom_values(arcs, f) is not None:
            return arcs, f, None
        # Python floats: a spread past the float range is inf, with no numpy overflow warning.
        eps = max(float(f.values.max()) - float(f.values.min()), 1e-9) / 2.0
        check_level_grid(f.values, eps)
        return arcs, f, eps

    def fullshift_spec(self) -> FullShiftSpec:
        """The full shift of the `fullshift` experiment: `symbols`, `dim` and `phi`."""
        phi = tuple(float(v) for v in self.phi.split(",") if v.strip())
        return FullShiftSpec(self.symbols, self.dim, phi)

    def fullshift_period(self) -> int:
        """The side t of the `fullshift` torus: the largest t <= n_max whose
        symbols**(t**dim) states fit DEFAULT_MEMBER_BUDGET.  The t**dim sites
        must fit it too, which only binds for one symbol.  Any base of 2 or
        more raised to the budget's bit length passes the budget, so neither
        power is taken with a larger exponent than that."""
        budget, cap = DEFAULT_MEMBER_BUDGET, DEFAULT_MEMBER_BUDGET.bit_length()
        period = 0
        while period < self.n_max:
            sites = (period + 1) ** min(self.dim, cap)
            if sites > budget or self.symbols ** min(sites, cap) > budget:
                break
            period += 1
        if not period:
            raise ValueError(f"symbols = {self.symbols} exceeds the member budget {budget}")
        return period


def _read_bool(value: str) -> bool:
    word = value.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {value!r}")


# How a config file value of each key is read: by the type of its field.
# The experiment is the command's positional argument; a file cannot set it.
_READERS = {
    "bool": _read_bool,
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
}
_KEY_READERS = {
    f.name: _READERS[f.type] for f in fields(ExperimentConfig) if f.name != "experiment"
}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into typed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _KEY_READERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            out[key] = _KEY_READERS[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return out


def load_config(
    experiment: str,
    config_path: str | Path | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Defaults for the experiment, then the file, then CLI overrides."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    merged: dict = dict(_EXPERIMENT_DEFAULTS.get(experiment, {}))
    if config_path is not None:
        merged.update(parse_config_text(Path(config_path).read_text(encoding="utf-8")))
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - set(_KEY_READERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    unread = set(merged) - _COMMON_KEYS - _EXPERIMENT_KEYS[experiment]
    if unread:
        raise ValueError(f"{experiment} does not read config keys: {sorted(unread)}")
    return ExperimentConfig(experiment=experiment, **merged)
