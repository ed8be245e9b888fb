"""The settable surface of `src/`: every public parameter with a default.

The walk is the one the CI job summary runs: every function or method,
nested ones included, whose name does not start with an underscore, and
each of its parameters that has a default.  Each allowed pair names a caller
outside `tests/` that sets it, so a new switch shows up here as an edit
to the allowlist.
"""

import ast
from pathlib import Path

import covpress

ALLOWED = {
    "cli.main(argv)": "scripts/run_all.py and perfbench/workloads.py pass the arguments",
    "config.load_config(config_path)": "cli.main, from --config",
    "config.load_config(overrides)": "cli.main and scripts/leakage_grid_sweep.py",
    "coveralg.box_sweep(member_budget)": "experiments.run_leakage, cfg.member_budget",
    "coveralg.box_join(member_budget)": "toppressure.pressure_quadruple",
    "coveralg.lowest_states(hits)": "toppressure._atom_extrema",
    "dynsys.potential_from_spec(arc_states)": "config.ExperimentConfig.doubling_inputs",
    "dynsys.indicator(height)": "dynsys.potential_from_spec, for arc:a",
    "experiments.sweep(f)": "experiments.run_leakage, its admissible and trivial Q sweeps",
    "lattice.as_point(dim)": "dynsys.power_map",
    "solvers.min_subcover_value(exact_limit)": "toppressure.quadruple_from_joined",
    "solvers.max_weight_independent_set(exact_limit)": "toppressure.quadruple_from_joined",
    "toppressure.pressure_quadruple(member_budget)": "perfbench/workloads.py, torus2d",
    "toppressure.quadruple_from_joined(exact_limit)": "experiments.run_doubling, cfg.exact_limit",
}


def public_parameters_with_a_default() -> list[str]:
    pairs = []
    for path in sorted(Path(covpress.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args.posonlyargs + node.args.args
            named = args[len(args) - len(node.args.defaults):]
            named += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            pairs += [f"{path.stem}.{node.name}({a.arg})" for a in named]
    return pairs


def test_public_parameters_with_a_default_are_the_allowed_ones():
    pairs = public_parameters_with_a_default()
    assert len(pairs) == len(set(pairs)) == 14
    assert sorted(pairs) == sorted(ALLOWED)
