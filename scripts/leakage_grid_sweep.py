#!/usr/bin/env python3
"""Sweep disk grid resolutions and watch the three leakage tracks move.

Finer angular grids keep the boundary doubling visible for more steps, so
the pizza and euclidean rates stay pinned near log 2 longer while the
admissible tail slope stays flat at zero.  Prints one line per grid.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covpress.config import load_config  # noqa: E402
from covpress.experiments import run_experiment  # noqa: E402

GRIDS = [(32, 128), (64, 256), (64, 512)]


def run():
    print("rings sectors  pizza  euclid  admissible_slope")
    for rings, sectors in GRIDS:
        cfg = load_config(
            "leakage",
            overrides={"rings": rings, "sectors": sectors, "member_budget": 1 << 17},
        )
        rows, verdicts = run_experiment(cfg)
        by_name = {v.name: v for v in verdicts}
        pizza = max(
            (r for r in rows if r.cover == "pizza"), key=lambda r: r.lam
        ).rate
        euclid = max(
            (r for r in rows if r.cover.startswith("euclid")), key=lambda r: r.lam
        ).rate
        adm = [r for r in rows if r.cover == "admissible"]
        adm.sort(key=lambda r: r.lam)
        slope = (
            math.log(adm[-1].raw_value) - math.log(adm[-2].raw_value)
        ) / (adm[-1].lam - adm[-2].lam)
        flags = "".join(" *" if not by_name[k].passed else "" for k in sorted(by_name))
        print(f"{rings:5d} {sectors:7d} {pizza:6.3f} {euclid:7.3f} {slope:17.4f}{flags}")


if __name__ == "__main__":
    run()
