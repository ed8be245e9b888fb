"""Cover pressure values, separated/spanning values, rates and their laws."""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covpress import coveralg, lattice, solvers, toppressure
from covpress.coveralg import (
    ClosenessGraph,
    SetFamily,
    box_join,
    box_sweep,
    cover_from_partition,
    state_field,
)
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_doubling,
    birkhoff_field,
    make_circle_doubling,
    make_disk_system,
)
from covpress.experiments import annulus_cell_partition
from covpress.solvers import (
    EXACT_LIMIT_FAMILIES,
    NODE_BUDGET,
    STATUS_EXACT,
    WeightedCoverInstance,
    min_subcover_value,
)
from covpress.toppressure import (
    PressureSample,
    log_sum_exp,
    pressure_quadruple,
    quadruple_from_joined,
)
from oracles import member_states, overlap_cover, torus_shift


def arc_cover(m, split=None):
    split = (m + 1) // 2 if split is None else split
    return SetFamily.from_state_sets(m, [range(split), range(split, m)])


def random_system(rng, m=None):
    m = m or int(rng.integers(4, 10))
    gen = rng.integers(0, m, size=m).astype(np.int64)
    return FiniteSystem(generators=(gen,))


def random_cover(rng, m):
    k = int(rng.integers(2, 4))
    masks = []
    for _ in range(k):
        mask = int(rng.integers(1, 1 << m))
        masks.append(mask)
    union = 0
    for mask in masks:
        union |= mask
    missing = ((1 << m) - 1) & ~union
    masks[0] |= missing
    return SetFamily.from_state_sets(m, [[s for s in range(m) if mask >> s & 1] for mask in masks])


def test_zero_potential_counts_minimal_subcover():
    sys = make_circle_doubling(101)
    f = Potential.constant(0.0, 101)
    sample = pressure_quadruple(sys, f, arc_cover(101), (3,))["Q"]
    assert sample.status == STATUS_EXACT
    assert math.exp(sample.log_value) == pytest.approx(8.0)


def test_constant_potential_scales_count():
    sys = make_circle_doubling(101)
    c = 0.37
    sample0 = pressure_quadruple(sys, Potential.constant(0.0, 101), arc_cover(101), (3,))["Q"]
    sample_c = pressure_quadruple(sys, Potential.constant(c, 101), arc_cover(101), (3,))["Q"]
    assert sample_c.log_value == pytest.approx(sample0.log_value + 3 * c, abs=1e-12)


def test_partition_and_cover_paths_agree():
    sys = make_circle_doubling(101)
    rng = np.random.default_rng(8)
    f = Potential(rng.uniform(-1, 1, 101))
    # The arcs plus a member inside a cell of every join: the cells are still
    # needed for their other states, so the extra member never helps.
    as_cover = SetFamily.from_state_sets(101, [range(51), range(51, 101), [0]])
    as_partition = arc_cover(101)
    assert as_partition.is_partition and not as_cover.is_partition
    for mode in ("Q", "P"):
        a = pressure_quadruple(sys, f, as_cover, (4,))[mode]
        b = pressure_quadruple(sys, f, as_partition, (4,))[mode]
        assert a.log_value == pytest.approx(b.log_value, abs=1e-12)


def test_one_member_cover_extremes():
    sys = make_circle_doubling(11)
    rng = np.random.default_rng(2)
    f = Potential(rng.uniform(-1, 1, 11))
    fam = SetFamily.trivial(11)
    n = (3,)
    field = np.array([sum(f.values[(x * 2**k) % 11] for k in range(3)) for x in range(11)])
    quad = pressure_quadruple(sys, f, fam, n)
    s, g = quad["S"], quad["G"]
    assert s.log_value == pytest.approx(field.max(), abs=1e-12)
    assert g.log_value == pytest.approx(field.min(), abs=1e-12)


def test_singleton_partition_counts_states():
    sys = make_circle_doubling(11)
    f = Potential.constant(0.0, 11)
    singles = SetFamily.singletons(11)
    quad = pressure_quadruple(sys, f, singles, (2,))
    s, g = quad["S"], quad["G"]
    assert math.exp(s.log_value) == pytest.approx(11.0)
    assert math.exp(g.log_value) == pytest.approx(11.0)
    assert s.chosen == tuple(range(11)) and g.chosen == tuple(range(11))


def test_sample_sorts_its_states_once_on_read():
    sample = PressureSample((2,), 2, 0.5, STATUS_EXACT, np.array([7, 2, 5]))
    chosen = sample.chosen
    assert chosen == (2, 5, 7) and all(type(x) is int for x in chosen)
    assert sample.chosen is chosen
    moved = dataclasses.replace(sample, states=np.array([4, 1]))
    assert moved.chosen == (1, 4) and sample.chosen is chosen
    assert PressureSample((2,), 2, 0.5, STATUS_EXACT).chosen == ()


def test_path_instance_separated_and_spanning():
    sys = FiniteSystem(generators=(np.arange(5),))
    f = Potential.constant(0.0, 5)
    path_cover = SetFamily.from_state_sets(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    quad = pressure_quadruple(sys, f, path_cover, (1,))
    s, g = quad["S"], quad["G"]
    assert math.exp(s.log_value) == pytest.approx(3.0)
    assert math.exp(g.log_value) == pytest.approx(2.0)
    assert s.status == STATUS_EXACT and g.status == STATUS_EXACT


@pytest.mark.parametrize("exact_limit, want", [(None, [24, 24, 2000, 2000]), (5, [24, 24, 5, 5])])
def test_exact_limit_caps_all_four_searches(monkeypatch, exact_limit, want):
    # On the path cover all four instances reach the certify-or-search step:
    # Q and P under the member limit, G and S under the class limit, which
    # both class searches read when called (patched to 5 in the second case).
    limits = []
    step = solvers._certify_or_search

    def recording(greedy, weights, bound, size, limit, search):
        limits.append(limit)
        return step(greedy, weights, bound, size, limit, search)

    monkeypatch.setattr(solvers, "_certify_or_search", recording)
    if exact_limit is not None:
        monkeypatch.setattr(solvers, "EXACT_LIMIT_NODES", exact_limit)
    path_cover = SetFamily.from_state_sets(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    toppressure.quadruple_from_joined(path_cover, np.zeros(5), (1,))
    assert limits == [solvers.EXACT_LIMIT_FAMILIES] * 2 + [solvers.EXACT_LIMIT_NODES] * 2 == want


def test_class_searches_read_the_class_limit_when_called(monkeypatch):
    # The closeness graph of the 5-cycle cover is a 5-cycle, whose clique
    # cover bound (3) does not certify its greedy set (2), so S searches; with
    # the limit patched below 5 classes S and G keep their greedy sets.
    results = []

    def recording(*args):
        results.append(solvers.max_weight_independent_set(*args))
        return results[-1]

    monkeypatch.setattr(toppressure, "max_weight_independent_set", recording)
    cycle_cover = SetFamily.from_state_sets(5, [{i, (i + 1) % 5} for i in range(5)])
    quad = toppressure.quadruple_from_joined(cycle_cover, np.zeros(5), (1,))
    assert (quad["S"].status, results[-1].fallback) == (STATUS_EXACT, None)
    assert results[-1].nodes > 1
    monkeypatch.setattr(solvers, "EXACT_LIMIT_NODES", 4)
    limited = toppressure.quadruple_from_joined(cycle_cover, np.zeros(5), (1,))
    assert (limited["S"].status, results[-1].fallback, results[-1].nodes) == (
        solvers.STATUS_GREEDY_LOWER, solvers.FALLBACK_OVER_EXACT_LIMIT, 0
    )
    assert repr(limited["S"].log_value) == repr(quad["S"].log_value)
    assert (quad["G"].status, limited["G"].status) == (STATUS_EXACT, solvers.STATUS_GREEDY_UPPER)
    assert repr(limited["G"].log_value) == repr(quad["G"].log_value)
    assert {mode: limited[mode] for mode in "QP"} == {mode: quad[mode] for mode in "QP"}


@pytest.mark.parametrize(
    "family",
    [
        SetFamily.from_labels(np.array([0, 0, 1, 2, 2])),
        SetFamily.from_state_sets(5, [{0, 1, 2}, {2, 3, 4}]),
    ],
    ids=["partition", "cover"],
)
def test_a_join_swept_without_a_potential_is_refused_by_the_evaluator(family):
    # box_sweep and box_join give the field None when f is None; the
    # evaluator names the zero potential instead of failing inside numpy.
    sys = make_circle_doubling(5)
    (_, joined, field), = box_sweep(sys, family, None, (1,))
    assert field is None
    with pytest.raises(ValueError, match=r"Potential\.constant\(0\.0, m\)"):
        toppressure.quadruple_from_joined(joined, field, (1,))
    zero = box_join(sys, family, Potential.constant(0.0, 5), (1,))[1]
    assert toppressure.quadruple_from_joined(joined, zero, (1,))["Q"].status == STATUS_EXACT


def test_a_field_of_the_wrong_length_is_refused_by_the_evaluator():
    # A per-state field needs one value per state and `AtomSums` one per
    # atom; numpy would broadcast a single value into every class.
    part = SetFamily.from_labels(np.array([0, 1, 2]))
    for field in (coveralg.AtomSums(np.array([1.0])), np.array([1.0]), np.zeros(4)):
        with pytest.raises(ValueError, match="the field has"):
            toppressure.quadruple_from_joined(part, field, (1,))
    cover = SetFamily.from_state_sets(3, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError, match=r"one per atom of the join \(3\)"):
        toppressure.quadruple_from_joined(cover, coveralg.AtomSums(np.zeros(2)), (1,))
    quad = toppressure.quadruple_from_joined(cover, coveralg.AtomSums(np.zeros(3)), (1,))
    assert quad["Q"].log_value == pytest.approx(math.log(2))  # both members are needed


def test_a_box_that_cannot_exist_is_refused_by_the_evaluator():
    # The box is read as a lattice point: a zero side is an empty box, and a
    # float, a negative or no coordinate is no point at all.
    part = SetFamily.singletons(3)
    for field in (np.zeros(3), coveralg.AtomSums(np.zeros(3))):
        with pytest.raises(lattice.EmptyBoxError, match=r"box \(0,\) is empty"):
            toppressure.quadruple_from_joined(part, field, (0,))
        with pytest.raises(TypeError):
            toppressure.quadruple_from_joined(part, field, (2.7,))
        with pytest.raises(ValueError, match="negative coordinate"):
            toppressure.quadruple_from_joined(part, field, (-2,))
        with pytest.raises(ValueError, match="at least one coordinate"):
            toppressure.quadruple_from_joined(part, field, ())
        # The deepest box that finite-vp reads is a point.
        deep = toppressure.quadruple_from_joined(part, field, (2**62,))["Q"]
        assert deep.n == (2**62,) and deep.lam == 2**62
        assert deep.rate == pytest.approx(math.log(3) / 2**62)


def test_chain_on_random_cover_instances():
    # For covers with proper overlap the provable pointwise chain is
    # Q <= P together with G <= S <= P; Q <= G needs disjoint members
    # (see test_full_chain_on_partitions and the xfail below).
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(4, 10))
        sys = random_system(rng, m)
        f = Potential(rng.uniform(-1.5, 1.5, m))
        fam = random_cover(rng, m)
        n = (int(rng.integers(1, 4)),)
        quad = pressure_quadruple(sys, f, fam, n)
        assert all(s.status == STATUS_EXACT for s in quad.values())
        slack = 1e-9
        assert quad["Q"].log_value <= quad["P"].log_value + slack
        assert quad["G"].log_value <= quad["S"].log_value + slack
        assert quad["S"].log_value <= quad["P"].log_value + slack


def test_full_chain_on_partitions():
    rng = np.random.default_rng(77)
    for _ in range(40):
        m = int(rng.integers(4, 10))
        sys = random_system(rng, m)
        f = Potential(rng.uniform(-1.5, 1.5, m))
        fam = SetFamily.from_labels(rng.integers(0, int(rng.integers(2, 4)), size=m))
        n = (int(rng.integers(1, 4)),)
        quad = pressure_quadruple(sys, f, fam, n)
        slack = 1e-9
        assert quad["Q"].log_value <= quad["G"].log_value + slack
        assert quad["G"].log_value <= quad["S"].log_value + slack
        assert quad["S"].log_value <= quad["P"].log_value + slack


@pytest.mark.xfail(
    strict=True,
    reason=(
        "With properly overlapping members a single state can span through the "
        "union of its members, which no one subcover member matches: on the "
        "cover {0,1},{1,2},{2,3},{3,4} of five fixed states with zero potential "
        "the cheapest subcover costs 3 while the state set {1,3} spans at cost "
        "2, so the pointwise inequality Q <= G is simply not a theorem outside "
        "the disjoint case."
    ),
)
def test_q_below_g_fails_for_overlapping_covers():
    sys = FiniteSystem(generators=(np.arange(5),))
    f = Potential.constant(0.0, 5)
    path_cover = SetFamily.from_state_sets(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    quad = pressure_quadruple(sys, f, path_cover, (1,))
    assert quad["Q"].log_value <= quad["G"].log_value + 1e-9


def test_refinement_monotonicity_of_Q():
    rng = np.random.default_rng(17)
    from covpress.coveralg import join

    for _ in range(30):
        m = int(rng.integers(4, 10))
        sys = random_system(rng, m)
        f = Potential(rng.uniform(-1, 1, m))
        coarse = random_cover(rng, m)
        fine = join(coarse, random_cover(rng, m))
        n = (int(rng.integers(1, 4)),)
        q_coarse = pressure_quadruple(sys, f, coarse, n)["Q"]
        q_fine = pressure_quadruple(sys, f, fine, n)["Q"]
        assert q_coarse.log_value <= q_fine.log_value + 1e-9


def test_plus_constant_identities():
    rng = np.random.default_rng(5)
    m = 9
    sys = random_system(rng, m)
    f = Potential(rng.uniform(-1, 1, m))
    fam = random_cover(rng, m)
    c = 0.83
    n = (3,)
    lam = 3
    shifted = f.shifted(c)
    quad = pressure_quadruple(sys, f, fam, n)
    quad_c = pressure_quadruple(sys, shifted, fam, n)
    for mode in "QPSG":
        assert quad_c[mode].log_value == pytest.approx(
            quad[mode].log_value + lam * c, abs=1e-9
        )


def test_p_mode_submultiplicative_with_boundary_correction():
    rng = np.random.default_rng(13)
    for _ in range(15):
        m = int(rng.integers(4, 9))
        sys = random_system(rng, m)
        f = Potential(rng.uniform(-1, 1, m))
        fam = random_cover(rng, m)
        n, p = 6, 2
        pn = pressure_quadruple(sys, f, fam, (n,))["P"]
        pp = pressure_quadruple(sys, f, fam, (p,))["P"]
        assert pn.status == STATUS_EXACT and pp.status == STATUS_EXACT
        dec = lattice.decompose((n,), (p,), (0,))
        bound = dec.residue * float(np.abs(f.values).max()) + dec.corners * pp.log_value
        assert pn.log_value <= bound + 1e-9


def test_p_rates_obey_the_subadditive_bound():
    # P rates obey rate(n) <= rate(p) + residue * supnorm / lambda(n).
    sys = make_circle_doubling(31)
    rng = np.random.default_rng(3)
    f = Potential(rng.uniform(-1, 1, 31))
    fam = arc_cover(31)
    samples = {
        t: pressure_quadruple(sys, f, fam, (t,), member_budget=8192)["P"]
        for t in range(1, 7)
    }
    for n_t in range(2, 7):
        for p_t in range(1, n_t):
            dec = lattice.decompose((n_t,), (p_t,), (0,))
            corr = dec.residue * float(np.abs(f.values).max()) / n_t
            assert (
                samples[n_t].rate
                <= samples[p_t].rate + corr + 1e-9
            )


def test_deep_partition_sample_matches_direct():
    # The singleton partition is its own join at every box, so the evaluator
    # on it and the doubling field gives the quadruple of the walked box.
    sys = make_circle_doubling(31)
    rng = np.random.default_rng(9)
    f = Potential(rng.uniform(-0.5, 0.5, 31))
    cells = SetFamily.singletons(31)
    assert box_join(sys, cells, None, (32,))[0] == cells
    deep = quadruple_from_joined(cells, birkhoff_doubling(sys, f, 5)[1], (32,))
    direct = pressure_quadruple(sys, f, cells, (32,), member_budget=10**6)
    for mode in ("Q", "P", "S", "G"):
        assert deep[mode].log_value == pytest.approx(direct[mode].log_value, abs=1e-9)
        assert deep[mode].lam == 32


def test_deep_sample_identity_map_reads_max():
    # On the identity map the deep rate of the finest partition is the top
    # potential value: the log-sum collapses onto the maximizing state.
    rng = np.random.default_rng(41)
    f_vals = rng.uniform(-1, 1, 9)
    sys = FiniteSystem(generators=(np.arange(9),))
    f_deep = birkhoff_doubling(sys, Potential(f_vals), 30)[1]
    deep = quadruple_from_joined(SetFamily.singletons(9), f_deep, (2**30,))["Q"]
    assert deep.rate == pytest.approx(float(f_vals.max()), abs=1e-8)


def test_2d_sweep_matches_per_box_values():
    # Two commuting maps acting on the coordinates of a 4 x 3 product.  The
    # sweep and the per-box functions walk each box in the same order, so
    # every row, greedy ones included, must be the same sample.
    rng = np.random.default_rng(7)
    sizes = (4, 3)
    coords = np.array([(a, b) for a in range(sizes[0]) for b in range(sizes[1])])
    gens = []
    for axis, size in enumerate(sizes):
        moved = coords.copy()
        moved[:, axis] = rng.integers(0, size, size=size)[coords[:, axis]]
        gens.append(np.ravel_multi_index(moved.T, sizes))
    sys = FiniteSystem(generators=tuple(gens))
    m = sys.state_count
    f = Potential(rng.uniform(-1, 1, m))
    for family in (random_cover(rng, m), SetFamily.from_labels(rng.integers(0, 3, m))):
        sweep = box_sweep(sys, family, f, (3, 3))
        boxes = []
        for n, joined, f_field in sweep:
            boxes.append(n)
            swept = quadruple_from_joined(joined, f_field, n)
            per_box = pressure_quadruple(sys, f, family, n)
            for mode in "QPSG":
                assert swept[mode] == per_box[mode]
        assert boxes == [(1, 1), (2, 2), (3, 3)]


def test_overlap_cover_on_3x3_torus_is_certified_at_the_root(monkeypatch):
    # The overlapping cover on the 3 x 3 torus and phi = 0.5 * x00.  At box
    # (2, 2) the root bounds certify both greedy answers, whose values and
    # states are pinned; without the bounds both searches ran out of nodes.
    sys, x = torus_shift(3, 3)
    cover = overlap_cover(x)
    f = Potential(0.5 * (x & 1))
    results = []

    def recorded(solve):
        def call(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]
        return call

    for name in ("min_subcover_value", "max_weight_independent_set"):
        monkeypatch.setattr(toppressure, name, recorded(getattr(toppressure, name)))
    pinned = (0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27)
    quad = pressure_quadruple(sys, f, cover, (2, 2))
    for mode in "GS":
        assert quad[mode].status == STATUS_EXACT
        assert quad[mode].log_value == 3.8963079367204267
        assert quad[mode].chosen == pinned
    # The solvers run for Q, P, G and S in that order; G and S stop at the root.
    assert len(results) == 4
    assert [(r.fallback, r.nodes) for r in results[2:]] == [(None, 1)] * 2


def test_overlap_cover_on_4x4_torus_is_exact_at_box_2_2():
    # 65,536 states; at (2, 2) the join has 49 members on 64 atoms, and Q,
    # P and G are solved over those 64 classes of 1,024 states each.
    sys, x = torus_shift(4, 4)
    quad = pressure_quadruple(sys, Potential(0.37 * (x & 1)), overlap_cover(x), (2, 2))
    for mode in "QPSG":
        assert (quad[mode].log_value, quad[mode].status) == (3.58065179892254, STATUS_EXACT)


def test_strongly_admissible_cover_on_the_16x64_disk():
    # The paper's central object at a realistic size: the annulus partition
    # of the 16 x 64 disk with every other cell glued to its 4-ring annulus
    # cell, under zero potential.  Its joins have 769 and 813 members.
    sys = make_disk_system(16, 64)
    cover = cover_from_partition(sys, annulus_cell_partition(sys, 16, 64, 4))
    f = Potential.constant(0.0, sys.state_count)
    got = []
    for n, joined, field in box_sweep(sys, cover, f, (2,), member_budget=10**5):
        quad = toppressure.quadruple_from_joined(joined, field, n)
        assert {s.status for s in quad.values()} == {STATUS_EXACT}
        got.append((joined.count, *(quad[mode].log_value for mode in "QPSG")))
    assert got == [
        (769, 6.645090969505644, 6.645090969505644, 6.645090969505644, 0.0),
        (813, 6.699500340161678, 6.699500340161678, 6.699500340161678, 0.0),
    ]


# SHA-256 of (box, mode, repr(log_value), status, chosen) over every sample of
# the N = 2 evaluator on the 4 x 4 origin partition (all 16 boxes) and the
# 3 x 3 overlapping cover, both under phi = 0.37 * x00.  A change that moves
# any of these bytes must explain the new digest.
N2_QUADRUPLE_SHA256 = "1113d0056f863504a2cfe5a961714ba01557b276d9b39c7317544696d4d02608"


def test_n2_quadruple_bytes_are_pinned():
    records = []
    big, xa = torus_shift(4, 4)
    origin = SetFamily.from_labels(xa & 1)
    for n in itertools.product(range(1, 5), repeat=2):
        quad = pressure_quadruple(big, Potential(0.37 * (xa & 1)), origin, n)
        records += [(n, m, repr(s.log_value), s.status, s.chosen) for m, s in quad.items()]
    small, xb = torus_shift(3, 3)
    for n in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        quad = pressure_quadruple(small, Potential(0.37 * (xb & 1)), overlap_cover(xb), n)
        records += [(n, m, repr(s.log_value), s.status, s.chosen) for m, s in quad.items()]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == N2_QUADRUPLE_SHA256


def test_box_join_ranks_a_partition_once(monkeypatch):
    # Over every box of the 4 x 4 torus the origin partition's itinerary
    # codes fit the 65,536 budget, so a single box ranks them once, at its
    # last point, over the whole code space; the join and the field are
    # the bytes of the sweep's last item.
    big, xa = torus_shift(4, 4)
    origin = SetFamily.from_labels(xa & 1)
    f = Potential(0.37 * (xa & 1))
    real = coveralg._dense_unique
    ranked = []

    def counted(codes, bound):
        ranked.append(bound)
        return real(codes, bound)

    for n in ((4, 4), (2, 3), (1, 4)):
        *_, (_, want, want_field) = box_sweep(big, origin, f, n, member_budget=65536)
        ranked.clear()
        monkeypatch.setattr(coveralg, "_dense_unique", counted)
        joined, field = box_join(big, origin, f, n, member_budget=65536)
        monkeypatch.undo()
        assert ranked == [2 ** lattice.box_cardinality(n)]
        assert (joined.atoms.tobytes(), joined.count) == (want.atoms.tobytes(), want.count)
        assert state_field(joined, field).tobytes() == state_field(want, want_field).tobytes()


@st.composite
def product_systems(draw):
    """A system of at most 7 states: one map, or two commuting maps acting on
    the coordinates of a product."""
    sizes = draw(st.sampled_from([(2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3), (3, 2)]))
    coords = np.array(list(itertools.product(*(range(c) for c in sizes))))
    gens = []
    for axis, size in enumerate(sizes):
        local = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        moved = coords.copy()
        moved[:, axis] = local[coords[:, axis]]
        gens.append(np.ravel_multi_index(moved.T, sizes))
    return FiniteSystem(generators=tuple(gens))


@st.composite
def wide_spread_instances(draw):
    """A `product_systems` system, an overlapping cover or a partition, a
    potential scaled by up to 2000, and a box of at most 2 per axis.

    Half the potentials are constant on the family's membership classes, so
    the box's ergodic sums are constant on every atom of the join."""
    sys = draw(product_systems())
    m = sys.state_count
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        family = SetFamily.from_labels(np.array(labels))
    else:
        sets = [set(draw(st.sets(st.integers(0, m - 1), min_size=1))) for _ in range(3)]
        sets[0] |= set(range(m)) - set().union(*sets)
        if all(not (a & b) for a, b in itertools.combinations(sets, 2)):
            sets[0].add(min(sets[1]))
        family = SetFamily.from_state_sets(m, sets)
    scale = draw(st.floats(0.0, 2000.0))
    flat = draw(st.booleans())
    size = family.atom_count if flat else m
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    if flat:
        values = values[family.atoms]
    n = tuple(draw(st.integers(1, 2)) for _ in range(sys.dim))
    return sys, family, Potential(scale * values), n


def _log_sum(values):
    values = list(values)
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


@given(wide_spread_instances())
@settings(max_examples=400, deadline=None)
def test_pressure_quadruple_matches_enumeration_at_wide_spreads(case):
    # Reference values from the definitions, in the log domain: the box join
    # and the ergodic sums point by point, Q and P over every covering
    # subfamily (a minimum over unions, exhaustive over the 2^m masks), S
    # over every separated and G over every spanning state set.
    sys, family, f, n = case
    m = sys.state_count
    full = (1 << m) - 1
    members = {sum(1 << x for x in member_states(family, i)) for i in range(family.count)}
    joined = {full}
    field = np.zeros(m)
    for k in itertools.product(*(range(c) for c in n)):
        image = np.arange(m)
        for axis, reps in enumerate(k):
            for _ in range(reps):
                image = sys.generators[axis][image]
        field += f.values[image]
        pulled = {sum(1 << x for x in range(m) if mask >> image[x] & 1) for mask in members}
        joined = {a & b for a in joined for b in pulled if a & b}

    def subcover(weight):
        best = [math.inf] * (full + 1)
        best[0] = -math.inf
        for mask in range(full):
            if best[mask] < math.inf:
                for member in joined:
                    grown = mask | member
                    if grown != mask:
                        best[grown] = min(best[grown], np.logaddexp(best[mask], weight[member]))
        return best[full]

    def states(mask):
        return [x for x in range(m) if mask >> x & 1]

    q_ref = subcover({mm: min(field[x] for x in states(mm)) for mm in joined})
    p_ref = subcover({mm: max(field[x] for x in states(mm)) for mm in joined})
    near = [0] * m  # per state, the union of the joined members holding it
    for member in joined:
        for x in states(member):
            near[x] |= member

    def separated(mask):
        return all(near[x] & mask == 1 << x for x in states(mask))

    def spanning(mask):
        covered = 0
        for x in states(mask):
            covered |= near[x]
        return covered == full

    def log_sum(mask):
        return _log_sum(field[x] for x in states(mask))

    s_ref = max(log_sum(mask) for mask in range(1, full + 1) if separated(mask))
    g_ref = min(log_sum(mask) for mask in range(1, full + 1) if spanning(mask))

    quad = pressure_quadruple(sys, f, family, n)
    for mode, ref in zip("QPSG", (q_ref, p_ref, s_ref, g_ref)):
        if quad[mode].status == STATUS_EXACT:
            assert abs(quad[mode].log_value - ref) <= 1e-9 * max(1.0, abs(ref)), mode
    # The chosen states are separated (S) or spanning (G), and their weights
    # are the value: the box's ergodic sums, as the solver saw them.
    solver_field = birkhoff_field(sys, f, n)
    for mode, admissible in (("S", separated), ("G", spanning)):
        chosen = quad[mode].chosen
        assert list(chosen) == sorted(set(chosen))
        assert admissible(sum(1 << x for x in chosen)), mode
        assert log_sum_exp(solver_field[list(chosen)].tolist()) == quad[mode].log_value, mode


def _atom_extremum(joined, f_field, pick):
    """Per atom, the min or max of the ergodic sum and the lowest state
    attaining it: one pass per extremum, as the evaluator took them before
    it shared a flat field's min with its max."""
    atoms = joined.atoms
    best = np.full(joined.atom_count, np.inf if pick == "min" else -np.inf)
    (np.minimum if pick == "min" else np.maximum).at(best, atoms, f_field)
    hits = np.flatnonzero(f_field == best[atoms])
    reps = np.full(joined.atom_count, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(reps, atoms[hits], hits)
    return best, reps


def _two_pass_extrema(joined, f_field):
    f_field = state_field(joined, f_field)
    first = np.unique(joined.atoms, return_index=True)[1]  # each atom's lowest state
    return (
        *_atom_extremum(joined, f_field, "min"), *_atom_extremum(joined, f_field, "max"), first
    )


@given(wide_spread_instances())
@settings(max_examples=300, deadline=None)
def test_one_pass_extrema_give_the_two_pass_samples(case):
    # Partitions and overlapping covers, with fields flat on the join's
    # atoms and not: the evaluator's samples equal those it gives when the
    # min and the max are taken in separate passes, byte for byte.  Only
    # `AtomSums` skips the passes; a per-state field takes them even when flat.
    sys, family, f, n = case
    joined, field = box_join(sys, family, f, n)
    extrema = toppressure._atom_extrema(joined, field)
    lo, lo_reps, hi, hi_reps, first = extrema
    flat = isinstance(field, coveralg.AtomSums)
    assert (hi is lo) == flat
    assert (hi_reps is lo_reps) == flat
    two_pass = _two_pass_extrema(joined, field)
    assert len(extrema) == len(two_pass) == 5
    for got, want in zip(extrema, two_pass):
        assert got.tobytes() == want.tobytes()
    quad = toppressure.quadruple_from_joined(joined, field, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toppressure, "_atom_extrema", _two_pass_extrema)
        reference = toppressure.quadruple_from_joined(joined, field, n)
    assert list(quad) == list(reference) == list("QPGS")
    for mode, sample in quad.items():
        want = reference[mode]
        assert (sample.n, sample.lam, sample.status, sample.chosen) == (
            want.n, want.lam, want.status, want.chosen
        ), mode
        assert repr(sample.log_value) == repr(want.log_value), mode


@st.composite
def flat_partitions(draw):
    """A `product_systems` system, a partition of it, a potential constant on
    each class and a box of at most 3 per axis."""
    sys = draw(product_systems())
    m = sys.state_count
    family = SetFamily.from_labels(np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))))
    heights = draw(st.lists(st.floats(-5.0, 5.0), min_size=family.atom_count, max_size=family.atom_count))
    n = tuple(draw(st.integers(1, 3)) for _ in range(sys.dim))
    return sys, family, Potential(np.array(heights)[family.atoms]), n


@given(flat_partitions())
@settings(max_examples=200, deadline=None)
def test_flat_partition_samples_find_their_states_when_read(case):
    # The G and S sample of a flat partition holds its join; read after the
    # whole sweep, its states are the lowest states of the join's classes,
    # as found when the join was yielded.
    sys, family, f, n = case
    samples = []
    for box, joined, field in box_sweep(sys, family, f, n):
        assert joined.is_partition and isinstance(field, coveralg.AtomSums)
        quad = toppressure.quadruple_from_joined(joined, field, box)
        assert quad["S"] is quad["G"]
        samples.append((quad["G"], tuple(np.sort(coveralg.lowest_states(joined)))))
    for sample, eager in samples:
        assert sample.chosen == eager and all(type(x) is int for x in sample.chosen)


def test_flat_partition_finds_its_states_once_on_read(monkeypatch):
    # Evaluating a flat partition looks for no class's lowest state; the
    # first read of `.chosen` does, once, and a second read reuses it.
    calls, original = [], coveralg.lowest_states

    def counted(family, *args):
        calls.append(args)
        return original(family, *args)

    monkeypatch.setattr(toppressure, "lowest_states", counted)
    monkeypatch.setattr(coveralg, "lowest_states", counted)
    sys = make_circle_doubling(11)
    quad = pressure_quadruple(sys, Potential.constant(0.5, 11), arc_cover(11), (3,))
    assert calls == []
    chosen = quad["S"].chosen
    assert quad["G"].chosen is chosen and len(chosen) == 8 and calls == [()]


@st.composite
def signed_zero_instances(draw):
    """A `wide_spread_instances` case, or its system, family and box under a
    potential of signed zeros, which is flat on every family."""
    sys, family, f, n = draw(wide_spread_instances())
    if draw(st.booleans()):
        signs = draw(st.lists(st.booleans(), min_size=len(f.values), max_size=len(f.values)))
        f = Potential(np.where(signs, -0.0, 0.0))
    return sys, family, f, n


_TORUS_2X3, _X_2X3 = torus_shift(2, 3)


@given(signed_zero_instances())
@example(  # a cover whose join over (2,) is pairwise disjoint, atoms numbered by member
    (
        FiniteSystem(generators=(np.array([2, 0, 2]),)),
        SetFamily.from_state_sets(3, [{0, 1}, {1, 2}]),
        Potential(np.array([0.5, -1.25, 3.0])),
        (2,),
    )
)
@example(  # a singleton join whose atoms run backwards
    (
        make_circle_doubling(7),
        SetFamily.from_labels(np.arange(7) < 4),
        Potential(np.where(np.arange(7) < 4, 0.25, -1.5)),
        (3,),
    )
)
@example((_TORUS_2X3, overlap_cover(_X_2X3), Potential(0.37 * (_X_2X3 & 1)), (2, 2)))
@settings(max_examples=300, deadline=None)
def test_atom_sums_evaluate_as_the_per_state_field(case):
    # A field flat on the family's atoms comes from the sweep as
    # `AtomSums`, any other per state; the evaluator's samples from it are
    # those of the per-state Birkhoff field, byte for byte.
    sys, family, f, n = case
    joined, field = box_join(sys, family, f, n)
    flat = all(len(set(f.values[family.atoms == a].tolist())) == 1 for a in range(family.atom_count))
    assert isinstance(field, coveralg.AtomSums) == flat
    by_atom, by_state = (
        toppressure.quadruple_from_joined(joined, fld, n) for fld in (field, birkhoff_field(sys, f, n))
    )
    for mode in "QPSG":
        got, want = by_atom[mode], by_state[mode]
        assert (repr(got.log_value), got.status, got.chosen) == (
            repr(want.log_value), want.status, want.chosen
        ), mode


@st.composite
def overlapping_joins(draw):
    """An overlapping cover of at most 9 states, joined over a box of at
    most 2 per axis under one map or two commuting ones, with the ergodic
    field of a potential scaled by up to 2000.  Members are dense, so the
    join's classes often hold several states."""
    sizes = draw(st.sampled_from([(4,), (6,), (8,), (9,), (2, 2), (2, 3), (3, 3)]))
    m = int(np.prod(sizes))
    coords = np.array(list(itertools.product(*(range(c) for c in sizes))))
    gens = []
    for axis, size in enumerate(sizes):
        local = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        moved = coords.copy()
        moved[:, axis] = local[coords[:, axis]]
        gens.append(np.ravel_multi_index(moved.T, sizes))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=2, max_size=4))
    masks[0] |= ((1 << m) - 1) & ~int(np.bitwise_or.reduce(masks))
    sets = [[x for x in range(m) if mask >> x & 1] for mask in masks]
    family = SetFamily.from_state_sets(m, sets)
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    f = Potential(draw(st.floats(0.0, 2000.0)) * values)
    n = tuple(draw(st.integers(1, 2)) for _ in sizes)
    joined, field = box_join(FiniteSystem(generators=tuple(gens)), family, f, n)
    assume(not joined.is_partition)
    return joined, state_field(joined, field)


def per_member_loop(joined, per_atom, ufunc):
    """Per member, `ufunc` reduced over the values of the atoms it holds,
    one member at a time."""
    return np.array([ufunc.reduce(per_atom[row]) for row in joined.incidence])


@given(
    overlapping_joins(),
    st.sampled_from([0, 3, 24]),
    st.one_of(st.integers(1, 30), st.just(NODE_BUDGET)),
)
@settings(max_examples=400, deadline=None)
def test_class_instances_solve_as_their_states(case, exact_limit, node_budget):
    # Q, P and G of an overlapping join are solved over its classes, each
    # element weighing its class size.  Expanded to one element per state
    # (sizes 1), the same instances give the same results: value bytes,
    # chosen members, status, node count and fallback.  Q and P weigh each
    # member by a per-member loop, and at the default limits and node budget
    # the evaluator's Q, P and G equal the results of those weights.
    joined, field = case
    graph = ClosenessGraph(joined, coveralg.lowest_states(joined))
    rank = np.empty(joined.atom_count, dtype=np.int64)
    rank[graph.class_atoms] = np.arange(joined.atom_count)
    class_of_state = rank[joined.atoms]
    lo = np.full(joined.atom_count, np.inf)
    np.minimum.at(lo, joined.atoms, field)
    hi = np.full(joined.atom_count, -np.inf)
    np.maximum.at(hi, joined.atoms, field)
    instances = (
        ("Q", graph.holds, per_member_loop(joined, lo, np.minimum)),
        ("P", graph.holds, per_member_loop(joined, hi, np.maximum)),
        ("G", graph.shares, lo[graph.class_atoms]),
    )
    quad = toppressure.quadruple_from_joined(joined, field, (1,))
    for mode, incidence, log_weights in instances:
        log_weights = tuple(log_weights.tolist())
        by_class = WeightedCoverInstance(incidence, graph.class_sizes, log_weights)
        by_state = WeightedCoverInstance(
            incidence[:, class_of_state], np.ones(len(field), dtype=np.int64), log_weights
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "NODE_BUDGET", node_budget)
            got, want = (
                min_subcover_value(inst, exact_limit=exact_limit) for inst in (by_class, by_state)
            )
        assert repr(got.log_value) == repr(want.log_value)
        assert (got.chosen, got.status, got.nodes, got.fallback) == (
            want.chosen, want.status, want.nodes, want.fallback
        )
        default = min_subcover_value(
            by_class, exact_limit=solvers.EXACT_LIMIT_NODES if mode == "G" else EXACT_LIMIT_FAMILIES
        )
        assert repr(quad[mode].log_value) == repr(default.log_value), mode
        assert quad[mode].status == default.status, mode


@given(overlapping_joins())
@settings(max_examples=300, deadline=None)
def test_member_extrema_match_the_dense_where(case):
    # Q's and P's member weights, reduced over each member's run of the
    # incidence's nonzeros, are the floats of the dense members x classes
    # `np.where` form: min and max are exact whatever the order.
    joined, field = case
    graph = ClosenessGraph(joined, coveralg.lowest_states(joined))
    lo, _, hi, _, _ = (a[graph.class_atoms] for a in toppressure._atom_extrema(joined, field))
    got = toppressure._member_extrema(graph.holds, lo, hi)
    want = (
        np.where(graph.holds, lo, np.inf).min(1),
        np.where(graph.holds, hi, -np.inf).max(1),
    )
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_log_sum_exp_empty_and_large():
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))
    assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf


def scalar_log_sum_exp(values):
    shift = max(values, default=-math.inf)
    if shift == -math.inf:
        return -math.inf
    return shift + math.log(math.fsum(math.exp(v - shift) for v in values))


@st.composite
def repeated_spreads(draw):
    """Up to six values, each repeated up to 3,000 times, in a random order:
    a top value, values up to 2000 below it (their exponentials underflow
    to subnormals from about 708 below and to 0 from about 745), and -inf."""
    top = draw(st.floats(-50.0, 50.0))
    gaps = st.one_of(st.floats(0.0, 2000.0), st.floats(700.0, 760.0), st.just(math.inf))
    pool = [top] + [top - g for g in draw(st.lists(gaps, max_size=5))]
    counts = draw(st.lists(st.integers(1, 3000), min_size=len(pool), max_size=len(pool)))
    values = np.repeat(pool, counts)
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(values)
    return values.tolist()


# 65,536 equal values: one class per state of the 4 x 4 torus at box (4, 4)
# under a constant potential.
@example([-0.37] * 65536)
@given(st.one_of(st.lists(st.floats(-2000.0, 2000.0), max_size=40), repeated_spreads()))
@settings(max_examples=200, deadline=None)
def test_log_sum_exp_of_arrays_and_lists_matches_the_scalar_fold(values):
    # Repeated values take one exponential per distinct value and exact
    # multiplicities, and still give the bytes of the fold over every value.
    assert log_sum_exp(values) == scalar_log_sum_exp(values)
    assert log_sum_exp(np.array(values)) == scalar_log_sum_exp(values)


def test_log_sum_exp_keeps_libm_exponentials():
    # Vectorised exponentials may differ from libm's in the last bit, and
    # about one result in a hundred then rounds differently.
    rng = np.random.default_rng(7)
    for _ in range(3000):
        values = rng.uniform(-3.0, 3.0, int(rng.integers(2, 40)))
        assert log_sum_exp(values) == scalar_log_sum_exp(values.tolist())


def test_log_sum_exp_of_an_infinite_value_is_infinite():
    # A finite potential whose box sum overflows puts +inf in a field; the
    # log-sum is then +inf, without the nan and the warning of inf - inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_sum_exp([math.inf, 0.0]) == math.inf
        assert log_sum_exp(np.array([0.0, -math.inf, math.inf, math.inf])) == math.inf
