"""Command line entry point: run an experiment, write CSV (and SVG), judge it.

The config file and `--n-max`/`--seed` set the experiment's parameters;
where the output goes is set by the flags `--out` and `--svg` alone.

Exit codes: 0 when every verdict passes, 2 when a verdict fails, 1 on any
error (usage errors, bad config, budget blowups, unreadable paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from covpress.config import EXPERIMENTS, load_config
from covpress.experiments import run_experiment, rows_to_csv
from covpress.svg import rate_plot_svg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpress",
        description=(
            "Pressure experiments for commuting lattice actions: box tilings, "
            "circle doubling, disk-boundary leakage, finite variational checks, "
            "and the full-shift oracle."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--out", type=str, default="out", help="output directory (default: out)")
    parser.add_argument("--n-max", type=int, default=None, dest="n_max")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--svg", action="store_true", help="also write a rate plot")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error 2, the failed-verdict code
        return 1 if exc.code else 0
    try:
        cfg = load_config(
            args.experiment,
            config_path=args.config,
            overrides={"n_max": args.n_max, "seed": args.seed},
        )
        rows, verdicts = run_experiment(cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{cfg.experiment}.csv"
        csv_path.write_text(rows_to_csv(rows), encoding="utf-8", newline="")
        print(f"wrote {len(rows)} rows to {csv_path}")
        if args.svg:
            svg_path = out_dir / f"{cfg.experiment}.svg"
            svg_path.write_text(
                rate_plot_svg(rows, title=cfg.experiment), encoding="utf-8", newline=""
            )
            print(f"wrote {svg_path}")
        for v in verdicts:
            print(v.line())
        return 0 if all(v.passed for v in verdicts) else 2
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
