"""Config parsing, experiment drivers, CSV contract, CLI exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covpress
from covpress import coveralg, experiments, lattice, toppressure
from covpress.cli import build_parser, main
from covpress.config import EXPERIMENTS, ExperimentConfig, load_config, parse_config_text
from covpress.coveralg import CoverBudgetError, SetFamily, box_sweep, join, potential_cover
from covpress.dynsys import make_circle_doubling, make_disk_system, potential_from_spec
from covpress.experiments import (
    ResultRow,
    VerdictItem,
    annulus_cell_partition,
    euclid_separated_count,
    pizza_cover,
    rows_to_csv,
    run_experiment,
    run_fullshift,
    run_lattice_check,
)
from covpress.solvers import STATUS_EXACT
from covpress.svg import rate_plot_svg
from covpress.toppressure import quadruple_from_joined, rate_sequence


def test_parse_config_text():
    text = """
    # comment
    m = 101
    potential = arc:1.5
    svg = true
    euclid_eps = 0.05
    """
    parsed = parse_config_text(text)
    assert parsed == {"m": 101, "potential": "arc:1.5", "svg": True, "euclid_eps": 0.05}
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("nope = 3")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words")
    # Booleans take 1/true/yes/on and 0/false/no/off in any case; any other
    # spelling is refused with its line, not read as False.
    for word in ("ON", "Yes", "1", "true", "off", "FALSE", "0", "No"):
        want = word.lower() in ("on", "yes", "1", "true")
        assert parse_config_text(f"svg = {word}") == {"svg": want}
    for word in ("nope", "ture", "", "2"):
        with pytest.raises(ValueError, match=rf"line 2: svg: .*got '{word}'"):
            parse_config_text(f"m = 101\nsvg = {word}")


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config("doubling")
    assert cfg.n_max == 14 and cfg.member_budget == 65536
    assert ExperimentConfig("doubling").member_budget == coveralg.DEFAULT_MEMBER_BUDGET
    p = tmp_path / "c.conf"
    p.write_text("n_max = 6\nseed = 3\n", encoding="utf-8")
    cfg2 = load_config("doubling", config_path=p, overrides={"seed": 9, "n_max": None})
    assert cfg2.n_max == 6 and cfg2.seed == 9
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(experiment="doubling", n_max=0)


def test_load_config_rejects_keys_the_experiment_does_not_read(tmp_path):
    # Each of these keys belongs to another experiment and would do nothing.
    with pytest.raises(ValueError, match=r"leakage does not read config keys: \['exact_limit'\]"):
        load_config("leakage", overrides={"exact_limit": 5})
    p = tmp_path / "c.conf"
    p.write_text("rings = 8\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"doubling does not read config keys: \['rings'\]"):
        load_config("doubling", config_path=p)
    with pytest.raises(ValueError, match="does not read"):
        load_config("finite-vp", overrides={"member_budget": 10})
    assert main(["leakage", "--exact-limit", "5", "--out", str(tmp_path)]) == 1
    # Every experiment accepts the common keys, `seed` included.
    for experiment in ("doubling", "leakage", "finite-vp", "lattice-check", "fullshift"):
        cfg = load_config(experiment, overrides={"n_max": 3, "seed": 2, "out": "x", "svg": True})
        assert (cfg.n_max, cfg.seed) == (3, 2)
    with pytest.raises(ValueError, match="unknown experiment"):
        load_config("nope")
    # Only the doubling system is configurable; the old system-kind and
    # inline-map keys are unknown keys.
    for line in ("kind = disk", "custom_maps = 1,2,0;0,1,2", "custom_marked = 2"):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text(line)
        p.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config("doubling", config_path=p)
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config("doubling", overrides={"kind": "disk"})


def test_config_file_cannot_set_the_experiment(tmp_path, capsys):
    # The experiment is the positional argument; a file naming another one
    # is refused, not run as the positional one.
    with pytest.raises(ValueError, match="line 1: unknown config key 'experiment'"):
        parse_config_text("experiment = leakage")
    conf = tmp_path / "exp.conf"
    conf.write_text("experiment = leakage\n", encoding="utf-8")
    out = tmp_path / "res"
    assert main(["doubling", "--config", str(conf), "--out", str(out)]) == 1
    assert "error: line 1: unknown config key 'experiment'" in capsys.readouterr().err
    assert not out.exists()


def test_potential_from_spec():
    f = potential_from_spec("constant:2.5", 4)
    assert np.allclose(f.values, 2.5)
    g = potential_from_spec("arc:2", 4, arc_states=[2, 3])
    assert g.values.tolist() == [0.0, 0.0, 2.0, 2.0]
    h = potential_from_spec("values:1,2,3,4", 4)
    assert h.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        potential_from_spec("values:1,2", 4)
    with pytest.raises(ValueError):
        potential_from_spec("wavelet:1", 4)


def test_rows_roundtrip_and_rate_invariant():
    cfg = load_config("fullshift", overrides={"phi": "0,1", "seed": 4})
    rows, verdicts = run_fullshift(cfg)
    assert verdicts[0].passed
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("experiment,cover,mode,n,lambda_n")
    for row in rows:
        if math.isfinite(row.raw_value) and row.raw_value > 0:
            assert abs(row.rate - math.log(row.raw_value) / row.lam) <= 1e-12


def test_lattice_check_runs_clean():
    cfg = load_config("lattice-check", overrides={"cases": 120, "seed": 5})
    rows, verdicts = run_lattice_check(cfg)
    assert len(rows) == 120
    assert verdicts[0].passed
    assert all(r.solver_status == "exact" for r in rows)


def test_lattice_check_box_sides_follow_n_max():
    for n_max in (1, 2, 5):
        cfg = load_config("lattice-check", overrides={"cases": 120, "seed": 5, "n_max": n_max})
        rows, verdicts = run_lattice_check(cfg)
        assert verdicts[0].passed
        assert max(max(r.n) for r in rows) == n_max


def test_lattice_check_n_max_must_fit_in_64_bits(tmp_path, capsys):
    # The largest box drawn has three sides of n_max: 2**21 cubed is 2**63.
    with pytest.raises(ValueError, match="n_max = 2097152"):
        load_config("lattice-check", overrides={"n_max": 2**21})
    out = tmp_path / "res"
    assert main(["lattice-check", "--n-max", str(2**21), "--out", str(out)]) == 1
    assert "n_max" in capsys.readouterr().err
    assert not (out / "lattice-check.csv").exists()
    # The largest accepted n_max runs on boxes near 2**63 points.
    cfg = load_config("lattice-check", overrides={"n_max": 2**21 - 1, "cases": 60})
    rows, verdicts = run_lattice_check(cfg)
    assert verdicts[0].passed
    assert all(r.solver_status == "exact" for r in rows)
    assert max(r.lam for r in rows) > 2**60


def test_lattice_check_reports_a_violated_case(monkeypatch):
    holds = lattice.TileDecomposition.residue_bound_holds
    calls = []

    def fails_on_case_3(dec):
        calls.append(dec)
        return holds(dec) and len(calls) != 4

    monkeypatch.setattr(lattice.TileDecomposition, "residue_bound_holds", fails_on_case_3)
    cfg = load_config("lattice-check", overrides={"cases": 10, "seed": 5})
    rows, verdicts = run_lattice_check(cfg)
    assert [r.solver_status for r in rows] == ["exact"] * 3 + ["violated"] + ["exact"] * 6
    assert (verdicts[0].name, verdicts[0].passed) == ("lattice-bounds", False)
    assert "10 random tilings, 1 violations" in verdicts[0].detail


def test_doubling_small_modulus():
    cfg = load_config(
        "doubling", overrides={"m": 101, "n_max": 5, "member_budget": 4096}
    )
    rows, verdicts = run_experiment(cfg)
    assert verdicts[0].passed is True or verdicts[0].passed is False  # ran
    q_rows = [r for r in rows if r.cover == "arcs" and r.mode == "Q"]
    assert [r.lam for r in q_rows] == [1, 2, 3, 4, 5]
    # Depth 1 with the two-arc cover needs both members: rate log 2 exactly.
    assert q_rows[0].rate == pytest.approx(math.log(2.0))


def test_doubling_budget_stops_the_sweep():
    cfg = load_config("doubling", overrides={"m": 101, "n_max": 8, "member_budget": 40})
    rows, verdicts = run_experiment(cfg)
    # 2**t itinerary cells: depth 5 is the last one within 40 members.
    assert max(r.lam for r in rows if r.cover == "arcs") == 5
    stop = "join over box (6,) (cardinality 6) has 64 members, budget 40"
    assert verdicts[0].detail == (
        "final Q rate 0.693147 vs target 0.693147 (|gap| = 0.000000); "
        f"arcs swept to depth 5 of 8: {stop}; arcs_bfe swept to depth 5 of 8: {stop}"
    )
    assert len(verdicts) == 1


def sweep_every_cover(cfg):
    """Reference: `run_doubling`'s rows and verdict detail with every cover
    swept on its own, equal or not."""
    sys = make_circle_doubling(cfg.m)
    m = sys.state_count
    split = (m + 1) // 2
    f = potential_from_spec(cfg.potential, m, arc_states=range(split, m))
    arcs = SetFamily.from_labels(np.arange(m) >= split)
    eps = max(float(f.values.max() - f.values.min()), 1e-9) / 2.0
    covers = [("arcs", arcs), ("arcs_bfe", join(arcs, potential_cover(sys, f, eps)))]
    rows, stopped, arc_q = [], [], []
    for name, family in covers:
        p_best = math.inf
        reached = 0
        try:
            for n, joined, f_field in box_sweep(
                sys, family, f, (cfg.n_max,), member_budget=cfg.member_budget
            ):
                quad = quadruple_from_joined(joined, f_field, n, cfg.exact_limit)
                for mode in ("Q", "P", "S", "G"):
                    bound = None
                    if mode == "P" and quad["P"].status == STATUS_EXACT:
                        p_best = bound = min(p_best, quad["P"].rate)
                    rows.append(
                        ResultRow("doubling", name, mode, quad[mode].n, quad[mode].lam,
                                  quad[mode].raw_value, quad[mode].rate, bound,
                                  quad[mode].status)
                    )
                if name == "arcs":
                    arc_q.append(quad["Q"])
                (reached,) = n
        except CoverBudgetError as exc:
            stopped.append(f"{name} swept to depth {reached} of {cfg.n_max}: {exc}")
    estimate = rate_sequence(arc_q)
    note = "" if estimate.is_monotone() else "; note: rate sequence is not monotone"
    note += "".join(f"; {text}" for text in stopped)
    kind, _, arg = cfg.potential.partition(":")
    if kind == "values":
        return rows, "no closed-form target for a values potential" + note
    target = math.log(1.0 + math.exp(float(arg))) if kind == "arc" else math.log(2.0)
    rate = estimate.samples[-1].rate
    gap = abs(rate - target)
    return rows, f"final Q rate {rate:.6f} vs target {target:.6f} (|gap| = {gap:.6f}){note}"


# A ramp is constant on no arc, so its level cover splits both arcs.
RAMP_101 = "values:" + ",".join(f"{i / 100:g}" for i in range(101))
SHARED_SWEEP_CASES = [
    pytest.param("constant:0", 1, id="constant"),
    pytest.param("arc:1", 1, id="arc"),
    pytest.param(RAMP_101, 2, id="ramp"),
]


@pytest.mark.parametrize("potential, sweeps", SHARED_SWEEP_CASES)
@pytest.mark.parametrize("budget", [None, 40])
def test_doubling_sweeps_each_distinct_cover_once(monkeypatch, potential, sweeps, budget):
    overrides = {"m": 101, "potential": potential}
    if budget is not None:
        overrides.update(n_max=8, member_budget=budget)
    cfg = load_config("doubling", overrides=overrides)
    expected_rows, expected_detail = sweep_every_cover(cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return box_sweep(*args, **kwargs)

    monkeypatch.setattr(experiments, "box_sweep", counted)
    rows, verdicts = run_experiment(cfg)
    assert len(calls) == sweeps
    assert rows == expected_rows
    assert [v.detail for v in verdicts] == [expected_detail]
    assert {r.cover for r in rows} == {"arcs", "arcs_bfe"}


# 51 x 0.3 on the lower arc of m = 101, then 50 x -1.2: constant on each arc.
ARC_VALUES_101 = "values:" + ",".join(["0.3"] * 51 + ["-1.2"] * 50)


@pytest.mark.parametrize("potential", ["constant:0", "arc:1", ARC_VALUES_101])
def test_doubling_builds_no_level_cover_for_arc_constant_potentials(monkeypatch, potential):
    # Constant on each arc, the potential's level members are unions of
    # arcs, so `arcs_bfe` is `arcs`: no level cover and no join are built,
    # and the rows and verdict are those of sweeping the joined cover.
    cfg = load_config("doubling", overrides={"m": 101, "n_max": 6, "potential": potential})
    expected_rows, expected_detail = sweep_every_cover(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a level cover was built")

    monkeypatch.setattr(experiments, "potential_cover", refuse)
    monkeypatch.setattr(experiments, "join", refuse)
    rows, verdicts = run_experiment(cfg)
    assert rows == expected_rows
    assert [v.detail for v in verdicts] == [expected_detail]


def count_lowest_states(monkeypatch):
    """The state count of each `lowest_states` call that the evaluator and the
    closeness graph make from here on."""
    calls, original = [], coveralg.lowest_states

    def counted(family, *args):
        calls.append(family.state_count)
        return original(family, *args)

    monkeypatch.setattr(toppressure, "lowest_states", counted)
    monkeypatch.setattr(coveralg, "lowest_states", counted)
    return calls


@pytest.mark.parametrize("experiment", ["doubling", "leakage"])
def test_default_runs_find_no_class_representatives(monkeypatch, experiment):
    # Every box of both default runs joins a partition under a flat field,
    # and no driver reads `.chosen`, so no class's lowest state is looked for.
    calls = count_lowest_states(monkeypatch)
    rows, verdicts = run_experiment(load_config(experiment))
    assert rows and all(v.passed for v in verdicts)
    assert calls == []


def test_default_doubling_keeps_no_join_past_its_depth():
    # A flat partition's G and S sample holds its join, 100,003 int64 atom
    # labels (0.8 MB), so a driver that kept every depth's quadruple would
    # hold all 14 of them: 15,140,374 bytes at the traced peak (Python 3.11,
    # numpy 2.4.6).  Built depth by depth, the rows keep none.  Before the
    # samples held their joins, quadruples kept and per-atom states found
    # eagerly, the peak was 5,197,558 bytes.
    cfg = load_config("doubling")
    experiments.run_doubling(cfg)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        experiments.run_doubling(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_197_558 + (1 << 20)


@pytest.mark.parametrize(
    "m, n_max, potential",
    [
        (100003, 8, "constant:1e10"),
        (100003, 8, "constant:1e300"),
        (100003, 8, "constant:-1e300"),
        (11, 6, "values:" + ",".join(["1e17"] * 6 + ["1.0000000000000002e17"] * 5)),
    ],
)
def test_doubling_runs_large_magnitude_potentials(tmp_path, m, n_max, potential):
    # A level grid cannot resolve a constant 1e10, or arcs 16 apart near
    # 1e17, and it overflows at 1e300.  Constant on each arc, none of these
    # potentials needs the grid, and each run passes with every row written.
    conf = tmp_path / "big.conf"
    conf.write_text(f"m = {m}\nn_max = {n_max}\npotential = {potential}\n", encoding="utf-8")
    out = tmp_path / "res"
    assert main(["doubling", "--config", str(conf), "--out", str(out)]) == 0
    lines = (out / "doubling.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 4 * n_max


def test_doubling_target_does_not_overflow():
    # math.exp(800) overflows; the verdict still prints log(1 + e^800).
    cfg = load_config("doubling", overrides={"m": 101, "potential": "arc:800"})
    _, verdicts = run_experiment(cfg)
    assert "target 800.000000" in verdicts[0].detail


def test_doubling_budget_below_depth_one_names_the_budget(tmp_path, capsys):
    # No arc depth fits, so no rate can be judged: the sweep's own error
    # reaches stderr, naming the budget.
    with pytest.raises(CoverBudgetError, match="has 2 members, budget 1"):
        run_experiment(load_config("doubling", overrides={"m": 101, "member_budget": 1}))
    conf = tmp_path / "b.conf"
    conf.write_text("m = 101\nmember_budget = 1\n", encoding="utf-8")
    out = tmp_path / "res"
    assert main(["doubling", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "join over box (1,) (cardinality 1) has 2 members, budget 1" in err
    assert "need at least one sample" not in err
    assert not (out / "doubling.csv").exists()


def per_depth_euclid_count(sys, rings, sectors, band, eps, depth):
    """Reference: the greedy separated count at one depth, cell by cell."""
    band_states = np.arange(1 + (rings - band) * sectors, 1 + rings * sectors)
    gen = sys.generators[0]
    orbit = np.empty((depth, len(band_states), 2))
    current = band_states.copy()
    for k in range(depth):
        orbit[k] = sys.geometry[current]
        current = gen[current]
    chosen = np.empty((len(band_states), depth, 2))
    count = 0
    for idx in range(len(band_states)):
        cand = orbit[:, idx, :]
        if count:
            diff = chosen[:count] - cand[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            if not (dist.max(axis=1) > eps).all():
                continue
        chosen[count] = cand
        count += 1
    return count


@given(
    st.integers(8, 16),
    st.sampled_from([16, 32, 64]),
    st.integers(1, 8),
    st.floats(0.01, 0.3),
    st.integers(1, 7),
)
@example(16, 64, 8, 0.05, 6)  # 512 band cells: the pair search runs in several row blocks
@settings(max_examples=25, deadline=None)
def test_euclid_counts_match_per_depth_greedy(rings, sectors, band, eps, depth):
    sys = make_disk_system(rings, sectors)
    got = euclid_separated_count(sys, rings, sectors, band, eps, depth)
    want = [per_depth_euclid_count(sys, rings, sectors, band, eps, d) for d in range(1, depth + 1)]
    assert got == want


def test_euclid_counts_wide_band_large_eps_stay_small():
    # 2048 band cells with about half a million close pairs at time 0: the
    # counts still match the reference, and the traced peak stays far below
    # what storing every close pair would take (over 25 MiB here).
    rings, sectors, band, eps, depth = 16, 128, 16, 0.3, 4
    sys = make_disk_system(rings, sectors)
    tracemalloc.start()
    try:
        got = euclid_separated_count(sys, rings, sectors, band, eps, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    want = [per_depth_euclid_count(sys, rings, sectors, band, eps, d) for d in range(1, depth + 1)]
    assert got == want


def test_euclid_count_memory_on_the_leakage_grid():
    # The default leakage count: chunks of at most 2**16 // depth candidates
    # and one separation time per close pair keep the traced peak small.
    rings, sectors = 64, 256
    sys = make_disk_system(rings, sectors)
    tracemalloc.start()
    try:
        euclid_separated_count(sys, rings, sectors, 8, 0.04, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@given(
    st.integers(2, 12),
    st.sampled_from([8, 16, 32, 48]),
    st.integers(1, 12),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_euclid_counts_with_eps_on_a_time0_distance(rings, sectors, band, a, b, depth):
    # eps is the exact time-0 distance of two band cells, so that pair sits
    # on the boundary of the `> eps` test and must count as close.
    band = min(band, rings)
    sys = make_disk_system(rings, sectors)
    first, cells = 1 + (rings - band) * sectors, band * sectors
    (xa, ya), (xb, yb) = sys.geometry[first + a % cells], sys.geometry[first + b % cells]
    eps = float(np.sqrt((xa - xb) ** 2 + (ya - yb) ** 2))
    if eps == 0.0:
        eps = 1.0 / rings
    got = euclid_separated_count(sys, rings, sectors, band, eps, depth)
    want = [per_depth_euclid_count(sys, rings, sectors, band, eps, d) for d in range(1, depth + 1)]
    assert got == want


@pytest.mark.parametrize("widths", [3, 5, 9, 25])
def test_euclid_counts_with_eps_over_several_rings(widths):
    # Buckets wider than several rings: each holds cells of many rings.
    rings, sectors, band, depth = 12, 32, 10, 5
    sys = make_disk_system(rings, sectors)
    eps = widths / rings
    got = euclid_separated_count(sys, rings, sectors, band, eps, depth)
    want = [per_depth_euclid_count(sys, rings, sectors, band, eps, d) for d in range(1, depth + 1)]
    assert got == want


@pytest.mark.parametrize(
    "rings, sectors, band, eps, depth",
    [(3, 16, 3, 0.3, 65), (4, 12, 4, 0.5, 67), (5, 8, 4, 0.2, 70), (5, 16, 5, 0.3, 68)],
)
def test_euclid_counts_past_depth_64(rings, sectors, band, eps, depth):
    # Orbits merge toward the centre, so some pairs stay close past depth
    # 64 and the greedy reads the high word of their depth masks.
    sys = make_disk_system(rings, sectors)
    got = euclid_separated_count(sys, rings, sectors, band, eps, depth)
    want = [per_depth_euclid_count(sys, rings, sectors, band, eps, d) for d in range(1, depth + 1)]
    assert got == want
    assert got[64] < band * sectors  # a cell is blocked at depth 65


def pizza_cover_by_sets(sys, rings, sectors, slices):
    """Reference: the pizza cover from state-set comprehensions."""
    width = sectors // slices
    inner_disk = {0} | {1 + i * sectors + j for i in range(rings // 2) for j in range(sectors)}
    members = [inner_disk] + [
        {1 + i * sectors + j for i in range(rings) for j in range(s * width, (s + 1) * width)}
        for s in range(slices)
    ]
    return SetFamily.from_state_sets(sys.state_count, members)


def annulus_partition_by_loop(sys, rings, sectors, annulus_rings):
    """Reference: the annulus partition labelled state by state."""
    labels = np.zeros(sys.state_count, dtype=np.int64)
    next_label = 1
    for state in range(sys.state_count):
        if state == 0 or (state - 1) // sectors < rings - annulus_rings:
            labels[state] = next_label
            next_label += 1
    return SetFamily.from_labels(labels)


def family_bytes(family):
    rows = family.incidence
    return family.atoms.tobytes(), None if rows is None else (rows.shape, rows.tobytes())


def same_family(a, b):
    return family_bytes(a) == family_bytes(b)


@given(st.integers(2, 24), st.integers(2, 48), st.integers(0, 10**6), st.integers(1, 24))
@example(64, 256, 1, 16)  # the leakage default: 2 slices, 16 annulus rings
@settings(max_examples=40, deadline=None)
def test_leakage_families_match_the_set_comprehensions(rings, sectors, pick, annulus_rings):
    sys = make_disk_system(rings, sectors)
    divisors = [d for d in range(1, sectors + 1) if sectors % d == 0]
    slices = divisors[pick % len(divisors)]
    annulus_rings = min(annulus_rings, rings)
    assert same_family(
        pizza_cover(sys, rings, sectors, slices), pizza_cover_by_sets(sys, rings, sectors, slices)
    )
    assert same_family(
        annulus_cell_partition(sys, rings, sectors, annulus_rings),
        annulus_partition_by_loop(sys, rings, sectors, annulus_rings),
    )


BAD_LEAKAGE_GEOMETRY = [
    ({"rings": 8, "euclid_band": 70}, "euclid_band"),
    ({"euclid_band": 0}, "euclid_band"),
    ({"annulus_rings": 0}, "annulus_rings"),
    ({"rings": 8, "annulus_rings": 9}, "annulus_rings"),
    ({"slices": 0}, "slices"),
    ({"sectors": 16, "slices": 3}, "slices"),
    ({"rings": 1}, "rings"),
    ({"sectors": 1, "slices": 1}, "sectors"),
    ({"euclid_eps": float("nan")}, "euclid_eps"),
    ({"slices": 1}, "slices"),
    ({"euclid_eps": float("inf")}, "euclid_eps"),
]


@pytest.mark.parametrize("values, key", BAD_LEAKAGE_GEOMETRY)
def test_bad_leakage_geometry_rejected_at_load_time(tmp_path, values, key):
    with pytest.raises(ValueError, match=key):
        load_config("leakage", overrides=values)
    conf = tmp_path / "bad.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    out = tmp_path / "res"
    assert main(["leakage", "--config", str(conf), "--out", str(out)]) == 1
    assert not (out / "leakage.csv").exists()


# Values a run would refuse only after it started; load_config refuses them.
BAD_RUN_VALUES = [
    ("doubling", {"m": 100}, "odd m"),
    ("doubling", {"m": 1}, "odd m"),
    ("doubling", {"potential": "bogus:1"}, "unknown potential spec"),
    ("doubling", {"m": 5, "potential": "values:1,2,3"}, "need 5 potential values"),
    ("fullshift", {"symbols": 0}, "at least one symbol"),
    ("fullshift", {"dim": 0}, "dimension must be positive"),
    ("fullshift", {"symbols": 3, "phi": "0,1"}, "one potential value per symbol"),
    ("finite-vp", {"max_states": 1}, "max_states"),
    ("doubling", {"potential": "arc:inf"}, "must be finite"),
    ("doubling", {"potential": "arc:-inf"}, "must be finite"),
    ("doubling", {"potential": "arc:nan"}, "must be finite"),
    # Not constant on the lower arc: values 16 apart near 1e17 defeat a
    # level grid of eps = 8, and a spread past the float range its eps.
    (
        "doubling",
        {"m": 11, "potential": "values:" + ",".join(["1e17"] * 5 + ["1.0000000000000002e17"] * 6)},
        r"eps = 8.0 .* float spacing is 16.0",
    ),
    (
        "doubling",
        {"m": 11, "potential": "values:1e308,-1e308," + ",".join(["0"] * 9)},
        "eps must be positive and finite, got inf",
    ),
    # Past the member budget not even the torus of one site fits.
    (
        "fullshift",
        {"symbols": 65537, "phi": ",".join(["0"] * 65537)},
        "symbols = 65537 exceeds the member budget 65536",
    ),
]


@pytest.mark.parametrize("experiment, values, message", BAD_RUN_VALUES)
def test_bad_run_values_rejected_at_load_time(tmp_path, experiment, values, message):
    with pytest.raises(ValueError, match=message):
        load_config(experiment, overrides=values)
    conf = tmp_path / "bad.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    out = tmp_path / "res"
    assert main([experiment, "--config", str(conf), "--out", str(out)]) == 1
    assert not (out / f"{experiment}.csv").exists()


def test_leakage_needs_two_depths(tmp_path, capsys):
    # The admissible verdict reads a tail slope over the last two depths.
    with pytest.raises(ValueError, match="leakage needs n_max >= 2"):
        load_config("leakage", overrides={"n_max": 1})
    out = tmp_path / "res"
    assert main(["leakage", "--n-max", "1", "--out", str(out)]) == 1
    assert "error: leakage needs n_max >= 2" in capsys.readouterr().err
    assert not (out / "leakage.csv").exists()
    assert load_config("leakage", overrides={"n_max": 2}).n_max == 2


def test_deep_exponent_must_fit_in_64_bits(tmp_path, capsys):
    conf = tmp_path / "deep.conf"
    conf.write_text("deep_exponent = 70\n", encoding="utf-8")
    with pytest.raises(ValueError, match="deep_exponent must be at most 62"):
        load_config("finite-vp", config_path=conf)
    with pytest.raises(ValueError, match="deep_exponent must be at most 62"):
        load_config("finite-vp", overrides={"deep_exponent": 63})
    out = tmp_path / "res"
    assert main(["finite-vp", "--config", str(conf), "--out", str(out)]) == 1
    assert "error: deep_exponent must be at most 62" in capsys.readouterr().err
    assert not (out / "finite-vp.csv").exists()
    # The largest accepted exponent runs: its box, 2**62 points, is in range.
    cfg = load_config("finite-vp", overrides={"deep_exponent": 62, "seeds": 2, "n_max": 2})
    rows, verdicts = run_experiment(cfg)
    assert verdicts[0].passed
    assert [r.lam for r in rows if r.lam > 2] == [2**62, 2**62]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_negative_seed_is_refused_at_load_time(tmp_path, capsys, experiment):
    # numpy would refuse it mid-run, naming no key; doubling and leakage would ignore it.
    with pytest.raises(ValueError, match="seed must be non-negative"):
        load_config(experiment, overrides={"seed": -1})
    out = tmp_path / "res"
    assert main([experiment, "--seed", "-1", "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (out / f"{experiment}.csv").exists()


# Run the CLI under a 2 GiB address-space cap, so that a run asking for far
# more memory fails fast instead of exhausting the machine.
CAPPED_CLI_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from covpress.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_fullshift_stops_at_a_box_too_large_to_enumerate(tmp_path):
    # The torus of side 2 would have 2**40 sites and 2**(2**40) states, an
    # integer of 2**40 bits to compare with the budget; the period search
    # rules it out without forming either power, and the run keeps side 1.
    conf = tmp_path / "deep.conf"
    conf.write_text("dim = 40\nn_max = 2\n", encoding="utf-8")
    src = str(Path(covpress.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "res"
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI_SCRIPT, "fullshift", "--config", str(conf), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "wrote 5 rows" in done.stdout and "VERDICT fullshift: PASS" in done.stdout
    lines = (out / "fullshift.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:5] for line in lines[1:]] == [
        *(["fullshift", "origin", mode, "-".join(["1"] * 40), "1"] for mode in "QPSG"),
        ["fullshift", "gibbs", "Hrate", "-".join(["1"] * 40), "1"],
    ]


def test_finite_vp_two_seeds():
    cfg = load_config("finite-vp", overrides={"seeds": 2, "seed": 11, "n_max": 4})
    rows, verdicts = run_experiment(cfg)
    assert verdicts[0].passed
    deep = [r for r in rows if r.cover.endswith("/cells") and r.lam > 10**6]
    oracle = [r for r in rows if r.cover.endswith("/cycles")]
    assert len(deep) == 2 and len(oracle) == 2
    for d, o in zip(deep, oracle):
        assert abs(d.rate - o.rate) <= 1e-6


def test_finite_vp_runs_systems_over_the_member_budget(tmp_path, capsys):
    # Its partition sweeps are budgeted at the state count, so systems of up
    # to 20,000 states, whose singleton joins have as many classes, run to a
    # verdict.
    conf = tmp_path / "c.conf"
    conf.write_text("max_states = 20000\nseeds = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["finite-vp", "--config", str(conf), "--out", str(out)]) == 0
    assert "VERDICT finite-vp: PASS" in capsys.readouterr().out
    lines = (out / "finite-vp.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 * (3 * 8 * 3 + 2)  # header, then per seed: swept Q/S/G, deep, cycles


def test_finite_vp_refuses_a_cycle_measure_off_its_mean(monkeypatch):
    # The check raises, so it also runs under `python -O`.
    measure_pressure = experiments.measure_pressure
    monkeypatch.setattr(
        experiments, "measure_pressure", lambda mu, sys, f: measure_pressure(mu, sys, f) + 1e-6
    )
    cfg = load_config("finite-vp", overrides={"seeds": 1})
    with pytest.raises(RuntimeError, match=r"seed0: cycle measure pressure .* cycle mean"):
        experiments.run_finite_vp(cfg)


def test_finite_vp_sweeps_to_n_max():
    cfg = load_config("finite-vp", overrides={"seeds": 1, "seed": 11, "n_max": 10})
    rows, verdicts = run_experiment(cfg)
    assert verdicts[0].passed
    swept = [r for r in rows if r.lam <= 10**6 and not r.cover.endswith("/cycles")]
    assert max(r.lam for r in swept) == 10
    assert len([r for r in swept if r.lam == 10]) == 9  # 3 covers x (Q, S, G)


def test_leakage_tiny_grid_runs():
    cfg = load_config(
        "leakage",
        overrides={
            "rings": 8,
            "sectors": 16,
            "n_max": 4,
            "member_budget": 65536,
            "euclid_band": 2,
            "annulus_rings": 2,
            "slices": 2,
        },
    )
    rows, verdicts = run_experiment(cfg)
    names = {v.name for v in verdicts}
    assert names == {"leakage-pizza", "leakage-euclid", "leakage-admissible"}
    covers = {r.cover for r in rows}
    assert "pizza" in covers and "admissible" in covers and "trivial" in covers
    trivial_rows = [r for r in rows if r.cover == "trivial"]
    assert all(r.rate == pytest.approx(0.0) for r in trivial_rows)


def test_svg_writer_smoke():
    rows = [
        ResultRow("x", "c", "Q", (t,), t, math.exp(0.5 * t), 0.5, None, "exact")
        for t in range(1, 5)
    ]
    svg = rate_plot_svg(rows, "demo")
    assert svg.startswith("<svg") and "polyline" in svg and "c/Q" in svg


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "res"
    code = main(["fullshift", "--out", str(out), "--svg"])
    assert code == 0
    assert (out / "fullshift.csv").exists()
    assert (out / "fullshift.svg").exists()
    # Unknown config key in the file: error path.
    bad = tmp_path / "bad.conf"
    bad.write_text("bogus = 3\n", encoding="utf-8")
    assert main(["fullshift", "--config", str(bad), "--out", str(out)]) == 1


def test_cli_verdict_failure_exit_code(tmp_path, monkeypatch):
    import covpress.experiments as exps

    def failing(cfg):
        return [], [VerdictItem("stub", False, "forced failure")]

    monkeypatch.setitem(exps.RUNNERS, "fullshift", failing)
    assert main(["fullshift", "--out", str(tmp_path)]) == 2


def test_cli_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["lattice-check", "--out", str(a), "--seed", "7"]) == 0
    assert main(["lattice-check", "--out", str(b), "--seed", "7"]) == 0
    assert (a / "lattice-check.csv").read_bytes() == (b / "lattice-check.csv").read_bytes()


def test_cli_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: covpress")
    for name in ("lattice-check", "doubling", "leakage", "finite-vp", "fullshift"):
        assert name in text


def test_cli_unknown_experiment_exits_2(capsys):
    with pytest.raises(SystemExit) as done:
        main(["torus", "--out", "unused"])
    assert done.value.code == 2
    assert "invalid choice: 'torus'" in capsys.readouterr().err


def test_cli_options_parse_on_either_side_of_the_experiment():
    parser = build_parser()
    after = parser.parse_args(["doubling", "--n-max", "3", "--seed", "4", "--svg", "--out", "o"])
    before = parser.parse_args(["--n-max", "3", "--seed", "4", "--svg", "--out", "o", "doubling"])
    assert vars(after) == vars(before) == {
        "experiment": "doubling", "config": None, "out": "o", "n_max": 3,
        "exact_limit": None, "seed": 4, "svg": True,
    }


def test_readme_library_sketch_runs(capsys):
    # The sketch imports only from the package namespace, which re-exports
    # its four names and no others.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(sketch, scope)
    assert {mode: s.rate for mode, s in scope["quad"].items()} == dict.fromkeys("QPGS", math.log(8) / 3)
    assert len(scope["quad"]["S"].chosen) == 8
    assert sorted(covpress.__all__) == ["Potential", "SetFamily", "make_circle_doubling", "pressure_quadruple"]


# Run in a fresh interpreter: whatever numpy submodule a CLI run imports
# lazily is paid for on every run, and no warm process would see it.  No run
# starts a thread pool, so neither the CLI nor a run imports one.
FRESH_IMPORT_SCRIPT = """
import json, sys
from covpress.cli import build_parser, main

def numpy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "numpy"}

def pool_modules():
    return [name for name in ("concurrent.futures", "logging", "queue") if name in sys.modules]

before = numpy_modules()
loaded = {"pool at import": pool_modules()}
for experiment in ("doubling", "leakage"):
    assert main([experiment, "--out", sys.argv[1] + "/" + experiment]) == 0
    loaded[experiment] = sorted(numpy_modules() - before)
loaded["pool after runs"] = pool_modules()
print(json.dumps(loaded))
"""


def test_cli_runs_import_no_numpy_module_after_start(tmp_path):
    src = str(Path(covpress.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "pool at import": [], "doubling": [], "leakage": [], "pool after runs": []
    }


# Run in a fresh interpreter with `np.unique` wrapped, so that every call the
# default doubling run makes is seen with its input size.
UNIQUE_SIZES_SCRIPT = """
import json, sys
import numpy as np
from covpress import experiments
from covpress.config import load_config

sizes = []
unique = np.unique

def counted(values, *args, **kwargs):
    sizes.append(int(np.size(values)))
    return unique(values, *args, **kwargs)

np.unique = counted
cfg = load_config("doubling")
experiments.run_doubling(cfg)
print(json.dumps({"sizes": sizes, "states": cfg.m}))
"""


def test_default_doubling_sorts_no_state_sized_array():
    # Labels and level-cover columns are ranked through the flag array and
    # the evaluator reads per-atom sums, so np.unique only ever sees
    # per-atom arrays: at most 2**14 of the 100,003 states.
    src = str(Path(covpress.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", UNIQUE_SIZES_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["sizes"] and max(seen["sizes"]) < seen["states"], seen


# perfbench's traced workers patch `SetFamily.as_labels`,
# `ClosenessGraph.class_adjacency` and `experiments.ThreadPoolExecutor`, and
# read `SolveResult.is_exact` and `SetFamily.labels`: renaming any of them
# breaks only the traced benchmark run, so a fresh process instruments
# covpress and drives each patched name once.
PERFBENCH_HOOKS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from covpress.coveralg import SetFamily
from covpress.dynsys import Potential, make_circle_doubling
from covpress.toppressure import pressure_quadruple

rec = spans.Recorder()
spans.instrument(rec)
SetFamily.from_labels(np.array([0, 1, 0])).as_labels()
system = make_circle_doubling(7)
cover = SetFamily.from_state_sets(7, [range(5), range(3, 7)])
pressure_quadruple(system, Potential.constant(0.0, 7), cover, (2,))
values = {}
for span in rec.spans:
    values.setdefault(span["name"], []).append(span["value"])
assert values["coveralg.as_labels"] == [0], values
assert "coveralg.ClosenessGraph.class_adjacency" in values, values
for solver in ("solvers.min_subcover_value", "solvers.max_weight_independent_set"):
    assert values[solver] and None not in values[solver], values
"""


def test_perfbench_instruments_the_names_it_patches():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-c", PERFBENCH_HOOKS_SCRIPT, str(root / "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    )


# SHA-256 of each experiment's CSV at its default config.  A refactor that
# changes any byte of a result must explain the new digest.
GOLDEN_CSV_SHA256 = {
    "doubling": "a992f28a2822a58a0c86e62b27b4e523b105669d4aba6e118311911d52072230",
    "leakage": "c9a1f274ab06939bd42fdebda8f1adbe64b7bb2659417845b042436ab0ccd509",
    "finite-vp": "1f343fac510e2988ae1cc8e67432c8f46a6f25fb6c55b65f4deda581c117f064",
    "fullshift": "0b090f302a1e35accd309161cbc484cc98b8540ad1da079460a077e3045adb1c",
    "lattice-check": "502bba233ef48760e44283969dbc9d0aa8e743a4d56e58379a9cd5ab1512f43d",
}


@pytest.mark.parametrize("experiment", sorted(GOLDEN_CSV_SHA256))
def test_cli_default_config_golden_digest(tmp_path, experiment):
    assert main([experiment, "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"{experiment}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CSV_SHA256[experiment]
