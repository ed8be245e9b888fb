"""Measures, entropy, measure pressure, and the lower-bound construction."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpress import coveralg, dynsys, lattice, measpressure
from covpress.coveralg import SetFamily, join
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_field,
    make_circle_doubling,
    make_full_shift_torus,
)
from covpress.measpressure import (
    FiniteMeasure,
    PressureEstimate,
    empirical_measures,
    entropy_rate,
    invariance_defect,
    is_invariant,
    ks_entropy,
    measure_pressure,
    partition_entropy,
    pushforward,
    separated_entropy_link_check,
    variation_distance,
)
from covpress.solvers import STATUS_EXACT
from covpress.toppressure import PressureSample, pressure_quadruple
from oracles import (
    conditional_entropy,
    invariant_cycle_mixture,
    is_probability,
    member_states,
    orbit_join,
    power_system,
)


def three_cycle_system():
    return FiniteSystem(generators=(np.array([1, 2, 0, 0]),))


def test_pushforward_identity_and_cycle():
    sys = three_cycle_system()
    mu = FiniteMeasure(np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(pushforward(mu, sys, (0,)).weights, mu.weights)
    moved = pushforward(mu, sys, (1,))
    # 0 and 3 both map to ... 0->1, 1->2, 2->0, 3->0.
    assert np.allclose(moved.weights, [0.3 + 0.4, 0.1, 0.2, 0.0])


def test_uniform_on_refuses_empty_repeated_and_outside_states():
    # Unchecked, [0, 0, 1] gives weights (1/3, 1/3, 0) of mass 2/3, numpy
    # wraps -1 around to state 2, 3 raises an IndexError and [] a
    # ZeroDivisionError.
    with pytest.raises(ValueError, match="state 0 is repeated"):
        FiniteMeasure.uniform_on([0, 0, 1], 3)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"state {bad} is outside 0..2"):
            FiniteMeasure.uniform_on([bad], 3)
    with pytest.raises(ValueError, match="nonempty"):
        FiniteMeasure.uniform_on([], 3)
    mu = FiniteMeasure.uniform_on({2, 0}, 3)
    assert mu.weights.tolist() == [0.5, 0.0, 0.5] and mu.mass == 1.0


def test_invariance_checks():
    sys = three_cycle_system()
    fixed = FiniteSystem(generators=(np.array([0, 0, 2]),))
    assert is_invariant(FiniteMeasure.uniform_on([0], 3), fixed)
    assert is_invariant(FiniteMeasure.uniform_on([0, 1, 2], 4), sys)
    assert not is_invariant(FiniteMeasure.uniform_on([0, 1], 4), sys)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3000),
    st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e300)),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_measure_mass_is_the_state_by_state_fsum(seed, m, pool, distinct):
    # Weights from a small pool repeat; `distinct` draws them all apart.
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=m) if distinct else rng.choice(pool, size=m)
    assert repr(FiniteMeasure(w).mass) == repr(math.fsum(w.tolist()))


def test_a_measure_sums_its_weights_only_when_its_mass_is_read(monkeypatch):
    assert "mass" not in {f.name for f in dataclasses.fields(FiniteMeasure)}
    sums = []
    fsum_terms, fsum = measpressure.fsum_terms, math.fsum
    monkeypatch.setattr(measpressure, "fsum_terms", lambda *args: sums.append("fsum_terms") or fsum_terms(*args))
    monkeypatch.setattr(math, "fsum", lambda terms: sums.append("fsum") or fsum(terms))
    mu = FiniteMeasure(np.full(65536, 1.0 / 65536))
    assert sums == []
    assert mu.mass == 1.0 and sums == ["fsum_terms", "fsum"]


def test_partition_entropy_values():
    one_cell = SetFamily.trivial(4)
    one_cell = SetFamily.from_state_sets(4, [range(4)])
    mu = FiniteMeasure.uniform_on(range(4), 4)
    assert partition_entropy(mu, one_cell) == pytest.approx(0.0)
    quarters = SetFamily.singletons(4)
    assert partition_entropy(mu, quarters) == pytest.approx(2 * math.log(2))
    thirds = SetFamily.from_state_sets(3, [{0}, {1, 2}])
    mu3 = FiniteMeasure(np.array([1 / 3, 1 / 3, 1 / 3]))
    expected = (1 / 3) * math.log(3) + (2 / 3) * math.log(3 / 2)
    assert partition_entropy(mu3, thirds) == pytest.approx(expected, abs=1e-12)
    assert partition_entropy(FiniteMeasure(np.zeros(3)), thirds) == 0.0


def test_partition_entropy_refuses_a_measure_of_another_length():
    thirds = SetFamily.singletons(3)
    for m in (2, 4):
        with pytest.raises(ValueError, match=f"the measure has {m} states, the partition 3"):
            partition_entropy(FiniteMeasure.uniform_on(range(m), m), thirds)


def test_partition_entropy_matches_the_per_class_sum():
    # Few state weights and small classes, so class masses repeat and some
    # classes are massless: one log per distinct mass still gives the bytes
    # of the sum taken class by class.
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = int(rng.integers(1, 300))
        family = SetFamily.from_labels(rng.integers(0, int(rng.integers(1, m + 1)), size=m))
        mu = FiniteMeasure(rng.choice([0.0, 0.0, 1 / 3, 0.25, 1e-300, 2.5], size=m))
        masses = np.bincount(family.atoms, weights=mu.weights, minlength=family.count)
        want = math.fsum(-v * math.log(v) for v in masses.tolist() if v > 0.0)
        assert repr(partition_entropy(mu, family)) == repr(want)
    assert partition_entropy(FiniteMeasure(np.zeros(0)), SetFamily.trivial(0)) == 0.0


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 500),
    st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e300)), min_size=1, max_size=4
    ),
)
@settings(max_examples=200, deadline=None)
def test_partition_entropy_is_the_class_by_class_fsum(seed, m, pool):
    # Random partitions whose state weights come from a small pool, so class
    # masses repeat; zero-mass classes and masses above 1 (negative terms)
    # included.
    rng = np.random.default_rng(seed)
    family = SetFamily.from_labels(rng.integers(0, int(rng.integers(1, m + 2)), size=m))
    mu = FiniteMeasure(rng.choice(pool, size=m))
    masses = np.bincount(family.atoms, weights=mu.weights, minlength=family.count)
    want = math.fsum(-v * math.log(v) for v in masses.tolist() if v > 0.0)
    assert repr(partition_entropy(mu, family)) == repr(want)


def test_conditional_entropy_cases():
    mu = FiniteMeasure(np.array([0.25, 0.25, 0.25, 0.25]))
    rows = SetFamily.from_state_sets(4, [{0, 1}, {2, 3}])
    cols = SetFamily.from_state_sets(4, [{0, 2}, {1, 3}])
    assert conditional_entropy(mu, rows, rows) == pytest.approx(0.0)
    trivial = SetFamily.from_state_sets(4, [range(4)])
    assert conditional_entropy(mu, rows, trivial) == pytest.approx(
        partition_entropy(mu, rows)
    )
    # Product measure: conditioning on columns tells nothing about rows.
    col_marginal = np.array([0.3, 0.7])
    row_marginal = np.array([0.4, 0.6])
    w = np.array(
        [
            row_marginal[0] * col_marginal[0],
            row_marginal[0] * col_marginal[1],
            row_marginal[1] * col_marginal[0],
            row_marginal[1] * col_marginal[1],
        ]
    )
    mu_prod = FiniteMeasure(w)
    assert conditional_entropy(mu_prod, rows, cols) == pytest.approx(
        partition_entropy(mu_prod, rows), abs=1e-12
    )
    with pytest.raises(ValueError, match="probability"):
        conditional_entropy(FiniteMeasure(np.array([1.0, 1.0, 0, 0])), rows, cols)


def dense_conditional_entropy(mu, c, d):
    """The C x D joint-mass matrix, looped over cell by cell."""
    joint = np.zeros((c.count, d.count))
    np.add.at(joint, (c.as_labels(), d.as_labels()), mu.weights)
    d_mass = joint.sum(axis=0)
    terms = []
    for dj in range(d.count):
        if d_mass[dj] <= 0.0:
            continue
        for ci in range(c.count):
            p = joint[ci, dj]
            if p > 0.0:
                terms.append(p * math.log(d_mass[dj] / p))
    return float(math.fsum(terms))


def test_conditional_entropy_matches_the_dense_matrix():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        w = rng.random(m) * (rng.random(m) < 0.8)
        w[0] += 1.0
        mu = FiniteMeasure(w / math.fsum(w.tolist()))
        if not is_probability(mu):
            continue
        c = SetFamily.from_labels(rng.integers(0, int(rng.integers(1, 8)), m))
        d = SetFamily.from_labels(rng.integers(0, int(rng.integers(1, 8)), m))
        assert conditional_entropy(mu, c, d) == dense_conditional_entropy(mu, c, d)


def four_by_four_torus():
    """The 4 x 4 two-symbol torus (bit 4i + j holds the symbol at (i, j))."""
    return make_full_shift_torus(2, (4, 4))


def test_conditional_entropy_of_65536_classes_runs_in_linear_memory():
    # Over the box (4, 4) the origin partition's join separates all 65,536
    # states of the 4 x 4 torus; a C x D matrix would take 32 GiB.
    sys = four_by_four_torus()
    x = np.arange(sys.state_count)
    joined = orbit_join(sys, SetFamily.from_labels(x & 1), (4, 4), member_budget=x.size)
    assert joined.count == x.size
    mu = FiniteMeasure.uniform_on(range(x.size), x.size)
    tracemalloc.start()
    try:
        assert conditional_entropy(mu, joined, SetFamily.singletons(x.size)) == 0.0
        assert conditional_entropy(mu, SetFamily.singletons(x.size), joined) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_entropy_subadditivity_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(3, 10))
        w = rng.uniform(0, 1, m)
        mu = FiniteMeasure(w / w.sum())
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        d = SetFamily.from_labels(rng.integers(0, 3, m))
        hc, hd = partition_entropy(mu, c), partition_entropy(mu, d)
        assert partition_entropy(mu, join(c, d)) <= hc + hd + 1e-9


def test_joined_entropy_log_bound():
    rng = np.random.default_rng(4)
    sys = make_circle_doubling(31)
    mu = FiniteMeasure.uniform_on(range(31), 31)
    c = SetFamily.from_labels(rng.integers(0, 3, 31))
    for t in range(1, 5):
        joined = orbit_join(sys, c, (t,))
        assert partition_entropy(mu, joined) <= t * math.log(c.count) + 1e-9


def test_entropy_rate_dirac_and_trivial():
    sys = FiniteSystem(generators=(np.array([0, 0, 2]),))
    mu = FiniteMeasure.uniform_on([0], 3)
    c = SetFamily.singletons(3)
    est = entropy_rate(mu, sys, c, 4)
    assert all(s.rate == pytest.approx(0.0) for s in est.samples)
    trivial = SetFamily.from_state_sets(3, [range(3)])
    # States 0 and 2 are fixed points, so the uniform measure on them is invariant.
    est2 = entropy_rate(FiniteMeasure.uniform_on([0, 2], 3), sys, trivial, 4)
    assert [s.rate for s in est2.samples] == pytest.approx([0.0] * 4)


def test_entropy_rate_needs_a_sample():
    sys = three_cycle_system()
    with pytest.raises(ValueError, match="need at least one sample"):
        entropy_rate(FiniteMeasure.uniform_on([0, 1, 2], 4), sys, SetFamily.singletons(4), 0)


@st.composite
def lattice_partitions(draw):
    """One map, or two commuting maps acting on the coordinates of a
    product, on at most 9 states; a partition into at most 3 classes; a
    positive measure; and a diagonal depth of at most 4."""
    sizes = draw(st.sampled_from([(2,), (3,), (5,), (7,), (9,), (2, 2), (2, 3), (3, 3)]))
    m = int(np.prod(sizes))
    coords = np.array(list(itertools.product(*(range(c) for c in sizes))))
    gens = []
    for axis, size in enumerate(sizes):
        local = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        moved = coords.copy()
        moved[:, axis] = local[coords[:, axis]]
        gens.append(np.ravel_multi_index(moved.T, sizes))
    labels = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    family = SetFamily.from_labels(np.array(labels))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    mu = FiniteMeasure(weights / weights.sum())
    return FiniteSystem(generators=tuple(gens)), family, mu, draw(st.integers(1, 4))


@given(lattice_partitions())
@settings(max_examples=300, deadline=None)
def test_entropy_rate_reads_stability_at_the_last_depth(case):
    # Each sample is the entropy of the join built depth by depth, whether
    # or not the last join still refines.  The drawn measure is seldom
    # invariant, and the sweep does not read it for that, so the invariance
    # check is patched out.
    sys, family, mu, n_max = case
    samples = []
    for t in range(1, n_max + 1):
        n = lattice.diagonal(t, sys.dim)
        joined = orbit_join(sys, family, n, member_budget=10**6)
        h = partition_entropy(mu, joined)
        samples.append(PressureSample(n, lattice.box_cardinality(n), h, STATUS_EXACT))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measpressure, "is_invariant", lambda mu, sys: True)
        est = entropy_rate(mu, sys, family, n_max)
    assert [s.log_value for s in est.samples] == [s.log_value for s in samples]


def test_entropy_rate_samples_a_join_that_still_refines():
    # The arcs of circle doubling on 101 states refine at every depth up to
    # about log2(101), so the depth-2 join is not the limit join, and its
    # rate is far above the limit 0.
    sys = make_circle_doubling(101)
    mu = FiniteMeasure.uniform_on(range(101), 101)
    arc = SetFamily.from_state_sets(101, [range(51), range(51, 101)])
    est = entropy_rate(mu, sys, arc, 2)
    assert orbit_join(sys, arc, (3,)).count > orbit_join(sys, arc, (2,)).count
    assert est.samples[-1].rate > 0.5


def test_a_pressure_estimate_holds_its_samples_alone():
    assert [f.name for f in dataclasses.fields(PressureEstimate)] == ["samples"]


def test_entropy_rate_requires_invariance():
    sys = three_cycle_system()
    mu = FiniteMeasure.uniform_on([0, 1], 4)
    with pytest.raises(ValueError, match="invariant"):
        entropy_rate(mu, sys, SetFamily.singletons(4), 3)


def test_entropy_rate_obeys_the_subadditive_bound():
    sys = make_circle_doubling(101)
    mu = FiniteMeasure.uniform_on(range(101), 101)
    arc = SetFamily.from_state_sets(101, [range(51), range(51, 101)])
    est = entropy_rate(mu, sys, arc, 6)
    for s in est.samples:
        # Existence-proof inequality: every rate is below every earlier
        # bound plus the vanishing boundary term.
        for p in est.samples:
            if p.lam >= s.lam:
                continue
            dec = lattice.decompose(s.n, p.n, tuple(0 for _ in s.n))
            corr = dec.residue / s.lam * partition_entropy(mu, arc)
            assert s.rate <= p.rate + corr + 1e-9


def test_ks_entropy_builds_no_join_and_checks_invariance(monkeypatch):
    # The singleton partition is its own join at every box: its rate limit
    # is stated, and no sweep or join is made to find it.
    def refuse(*args, **kwargs):
        raise AssertionError("ks_entropy swept or joined")

    monkeypatch.setattr(measpressure, "box_sweep", refuse)
    monkeypatch.setattr(measpressure, "box_join", refuse)
    sys = make_circle_doubling(101)
    assert ks_entropy(FiniteMeasure.uniform_on(range(101), 101), sys) == 0.0
    with pytest.raises(ValueError, match="measure is not invariant within tolerance"):
        ks_entropy(FiniteMeasure.uniform_on([1], 101), sys)


def test_ks_entropy_identity_map_zero():
    sys = FiniteSystem(generators=(np.arange(4),))
    assert ks_entropy(FiniteMeasure.uniform_on(range(4), 4), sys) == 0.0


def test_ks_entropy_deterministic_zero_fixed():
    sys = make_circle_doubling(11)
    assert ks_entropy(FiniteMeasure.uniform_on(range(11), 11), sys) == 0.0


def test_ks_entropy_takes_a_system_over_a_million_states():
    # The singleton join has one class per state; its sweep is budgeted at
    # the state count, so no fixed member budget refuses a large system.
    m = 2**20 + 1
    sys = make_circle_doubling(m)
    mu = FiniteMeasure(np.full(m, 1.0 / m))
    assert ks_entropy(mu, sys) == 0.0
    value = measure_pressure(mu, sys, Potential.constant(0.7, m))
    assert value == pytest.approx(0.7, rel=1e-12)


def test_measure_pressure_cases():
    fixed = FiniteSystem(generators=(np.array([0, 0, 2]),))
    f = Potential(np.array([0.7, -1.0, 2.0]))
    assert measure_pressure(FiniteMeasure.uniform_on([0], 3), fixed, f) == pytest.approx(0.7)
    two_cycle = FiniteSystem(generators=(np.array([1, 0, 2]),))
    mu = FiniteMeasure.uniform_on([0, 1], 3)
    g = Potential(np.array([0.0, 3.0, 5.0]))
    assert measure_pressure(mu, two_cycle, g) == pytest.approx(1.5)
    assert measure_pressure(mu, two_cycle, Potential.constant(0.0, 3)) == pytest.approx(0.0)


def test_measure_pressure_refuses_a_potential_of_another_length():
    # numpy would broadcast one value over the three states and read 5.0.
    sys = FiniteSystem(generators=(np.array([1, 2, 0]),))
    mu = FiniteMeasure.uniform_on([0, 1, 2], 3)
    for values in ([5.0], [5.0, 1.0], [5.0, 1.0, 0.0, 2.0]):
        with pytest.raises(ValueError, match=rf"potential has {len(values)} values, the measure 3 states"):
            measure_pressure(mu, sys, Potential(np.array(values)))
    assert measure_pressure(mu, sys, Potential(np.array([5.0, 1.0, 0.0]))) == pytest.approx(2.0)


def test_measure_pressure_scaling():
    sys = three_cycle_system()
    mu = FiniteMeasure.uniform_on([0, 1, 2], 4)
    f = Potential(np.array([0.5, -0.25, 1.0, 0.0]))
    base = measure_pressure(mu, sys, f)
    for alpha in (0.0, 0.5, 2.0):
        scaled = measure_pressure(mu.scaled(alpha), sys, f)
        assert scaled == pytest.approx(alpha * base, abs=1e-9)


def test_scaling_identity_at_fixed_depth():
    # Entropy of a scaled measure expands exactly into the mass term plus the
    # scaled entropy, and the mass term dies off with the box size.
    sys = make_circle_doubling(31)
    mu = FiniteMeasure.uniform_on(range(31), 31)
    c = SetFamily.from_state_sets(31, [range(16), range(16, 31)])
    for alpha in (0.5, 2.0):
        for t in (1, 3, 5):
            joined = orbit_join(sys, c, (t,))
            lhs = partition_entropy(mu.scaled(alpha), joined)
            rhs = alpha * partition_entropy(mu, joined) + alpha * mu.mass * math.log(1 / alpha)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_conditional_bound_finite_depth():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(4, 10))
        gen = rng.integers(0, m, m).astype(np.int64)
        sys = FiniteSystem(generators=(gen,))
        mu = invariant_cycle_mixture(sys, rng)
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        k = SetFamily.from_labels(rng.integers(0, 3, m))
        hck = conditional_entropy(mu, c, k)
        for t in (1, 2, 3):
            lam = t
            hc = partition_entropy(mu, orbit_join(sys, c, (t,)))
            hk = partition_entropy(mu, orbit_join(sys, k, (t,)))
            assert hc / lam <= hk / lam + hck + 1e-9


def test_from_inside_bound():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(5, 11))
        gen = rng.integers(0, m, m).astype(np.int64)
        sys = FiniteSystem(generators=(gen,))
        mu = invariant_cycle_mixture(sys, rng)
        labels = rng.integers(0, 3, m)
        c = SetFamily.from_labels(labels)
        l = c.count
        # Carve K_j out of C_j by exiling some states to the junk class K_0.
        exiled = rng.random(m) < 0.3
        k_labels = np.where(exiled, 0, labels + 1)
        if (k_labels == 0).all() or len(np.unique(k_labels)) < 2:
            continue
        k = SetFamily.from_labels(k_labels)
        k0_label = int(k.as_labels()[np.flatnonzero(exiled)[0]]) if exiled.any() else None
        mass_k0 = float(mu.weights[exiled].sum()) if exiled.any() else 0.0
        bound = mass_k0 * math.log(max(l, 2))
        hck = conditional_entropy(mu, c, k)
        assert hck <= bound + 1e-9
        for t in (1, 2):
            hc = partition_entropy(mu, orbit_join(sys, c, (t,)))
            hk = partition_entropy(mu, orbit_join(sys, k, (t,)))
            assert hc / t <= hk / t + bound + 1e-9


def test_power_lemma_pieces():
    # Joined families through the powered system match deeper joins of the
    # base system, and the ergodic integral scales with the box size.
    sys = make_circle_doubling(31)
    rng = np.random.default_rng(21)
    mu = invariant_cycle_mixture(sys, rng)
    f = Potential(rng.normal(size=31))
    c = SetFamily.from_labels(rng.integers(0, 2, 31))
    m = (3,)
    powered = power_system(sys, m)
    c_m = orbit_join(sys, c, m)
    for t in (1, 2, 3):
        via_power = orbit_join(powered, c_m, (t,))
        direct = orbit_join(sys, c, (3 * t,))
        assert via_power == direct
        assert partition_entropy(mu, via_power) == pytest.approx(
            partition_entropy(mu, direct), abs=1e-12
        )
    f_m = birkhoff_field(sys, f, m)
    assert math.fsum((mu.weights * f_m).tolist()) == pytest.approx(
        3 * mu.integrate(f), abs=1e-9
    )


def test_upper_bound_lemma_fixed_depth():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m = int(rng.integers(4, 10))
        gen = rng.integers(0, m, m).astype(np.int64)
        sys = FiniteSystem(generators=(gen,))
        mu = invariant_cycle_mixture(sys, rng)
        if not is_probability(mu):
            mu = FiniteMeasure(mu.weights / mu.mass)
        f = Potential(rng.uniform(-1, 1, m))
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        for t in (1, 2, 3):
            joined = orbit_join(sys, c, (t,))
            f_field = birkhoff_field(sys, f, (t,))
            sup_per_cell = np.full(joined.count, -np.inf)
            np.maximum.at(sup_per_cell, joined.atoms, f_field)
            shift = float(sup_per_cell.max())
            log_sum = shift + math.log(
                math.fsum(math.exp(v - shift) for v in sup_per_cell)
            )
            lhs = mu.integrate(f) + partition_entropy(mu, joined) / t
            assert lhs <= log_sum / t + 1e-9


def test_empirical_measures_fixed_point():
    sys = FiniteSystem(generators=(np.array([0, 0, 2]),))
    f = Potential(np.array([0.3, 0.1, -2.0]))
    emp = empirical_measures(sys, f, (3,), [0])
    assert np.allclose(emp.sigma.weights, [1.0, 0, 0])
    assert np.allclose(emp.averaged.weights, [1.0, 0, 0])
    assert emp.log_normalizer == pytest.approx(3 * 0.3)


def test_empirical_measures_two_cycle():
    sys = FiniteSystem(generators=(np.array([1, 0, 2]),))
    f = Potential.constant(0.0, 3)
    emp = empirical_measures(sys, f, (2,), [0])
    assert np.allclose(emp.averaged.weights, [0.5, 0.5, 0.0])
    assert is_probability(emp.sigma) and is_probability(emp.averaged)


def test_empirical_sigma_weights_proportional():
    sys = make_circle_doubling(7)
    rng = np.random.default_rng(2)
    f = Potential(rng.normal(size=7))
    e = [1, 3, 6]
    emp = empirical_measures(sys, f, (2,), e)
    field = birkhoff_field(sys, f, (2,))
    raw = np.exp(field[e])
    assert np.allclose(emp.sigma.weights[e], raw / raw.sum(), atol=1e-12)


def full_bincount_average(sys, n, chosen, weights):
    """The averaged empirical measure summed as one full-length bincount per box point."""
    avg = np.zeros(sys.state_count)
    for _, (tk,) in dynsys.iter_box_pullbacks(sys, n, (np.arange(sys.state_count),)):
        avg += np.bincount(tk[chosen], weights=weights[chosen], minlength=sys.state_count)
    return avg / lattice.box_cardinality(n)


@pytest.mark.parametrize(
    "make, n, count",
    [
        (four_by_four_torus, (4, 4), 16),
        (four_by_four_torus, (4, 4), 2000),
        (four_by_four_torus, (4, 4), 1 << 16),
        (lambda: make_circle_doubling(1001), (9,), 300),
        # A random self-map: many chosen states share an image at each point.
        (lambda: FiniteSystem(generators=(np.random.default_rng(5).integers(0, 500, 500),)), (6,), 400),
    ],
)
def test_empirical_average_is_byte_equal_to_full_bincounts(make, n, count):
    sys = make()
    rng = np.random.default_rng(count)
    f = Potential(rng.normal(size=sys.state_count))
    chosen = np.sort(rng.choice(sys.state_count, size=count, replace=False))
    emp = empirical_measures(sys, f, n, chosen.tolist())
    reference = full_bincount_average(sys, n, chosen, emp.sigma.weights)
    assert emp.averaged.weights.tobytes() == reference.tobytes()


def test_invariance_defect_zero_shift():
    sys = make_circle_doubling(11)
    f = Potential.constant(0.0, 11)
    emp = empirical_measures(sys, f, (5,), [0, 3, 7])
    defect, bound = invariance_defect(emp.averaged, sys, (5,), (0,))
    assert defect == pytest.approx(0.0)
    assert bound == 0.0


def test_invariance_defect_refuses_an_empty_box():
    sys = make_circle_doubling(11)
    with pytest.raises(lattice.EmptyBoxError, match=r"box \(0,\) is empty"):
        invariance_defect(FiniteMeasure.uniform_on(range(11), 11), sys, (0,), (1,))


def test_invariance_defect_bound_and_decay():
    sys = make_circle_doubling(101)
    rng = np.random.default_rng(6)
    f = Potential(rng.normal(size=101))
    defects = []
    for t in (10, 20, 40):
        emp = empirical_measures(sys, f, (t,), list(range(0, 101, 7)))
        defect, bound = invariance_defect(emp.averaged, sys, (t,), (1,))
        assert defect <= bound + 1e-12
        assert bound == pytest.approx(2 / t)
        defects.append(defect)
    assert defects[-1] <= defects[0] + 1e-12


def test_separated_link_singleton_and_uniform():
    sys = make_circle_doubling(11)
    arc = SetFamily.from_state_sets(11, [range(6), range(6, 11)])
    rng = np.random.default_rng(8)
    f = Potential(rng.normal(size=11))
    report = separated_entropy_link_check(sys, f, arc, (2,), [4], arc)
    assert report.applicable and report.identity_holds and report.transport_holds
    assert report.entropy_term == pytest.approx(0.0)

    zero = Potential.constant(0.0, 11)
    chosen = pressure_quadruple(sys, zero, arc, (3,))["S"].chosen
    report2 = separated_entropy_link_check(sys, zero, arc, (3,), chosen, arc)
    assert report2.applicable and report2.identity_holds
    assert report2.entropy_term == pytest.approx(math.log(len(chosen)))


def test_separated_link_doubling_101():
    sys = make_circle_doubling(101)
    arc = SetFamily.from_state_sets(101, [range(51), range(51, 101)])
    rng = np.random.default_rng(10)
    f = Potential(rng.normal(size=101))
    sample = pressure_quadruple(sys, f, arc, (3,))["S"]
    report = separated_entropy_link_check(sys, f, arc, (3,), sample.chosen, arc)
    assert report.applicable and report.identity_holds and report.transport_holds
    assert report.log_normalizer == pytest.approx(sample.log_value, abs=1e-9)


def test_separated_link_walks_its_box_twice(monkeypatch):
    # One walk gives the join and the ergodic field, a second the averaged
    # measure; the field is not walked for again, and the report is the one
    # the public empirical measures give.
    sys = make_circle_doubling(101)
    arc = SetFamily.from_state_sets(101, [range(51), range(51, 101)])
    f = Potential(np.random.default_rng(10).normal(size=101))
    chosen = pressure_quadruple(sys, f, arc, (3,))["S"].chosen
    walk = dynsys.iter_box_pullbacks
    walks = []

    def counted(sys, n, arrays):
        walks.append(tuple(n))
        return walk(sys, n, arrays)

    for module in (coveralg, dynsys, measpressure):
        monkeypatch.setattr(module, "iter_box_pullbacks", counted)
    report = separated_entropy_link_check(sys, f, arc, (3,), chosen, arc)
    assert walks == [(3,), (3,)]
    monkeypatch.undo()
    emp = empirical_measures(sys, f, (3,), chosen)
    assert report.identity_holds and report.transport_holds
    assert report.log_normalizer == emp.log_normalizer
    assert report.entropy_term == partition_entropy(emp.sigma, orbit_join(sys, arc, (3,)))


def test_separated_link_inapplicable_cases():
    sys = make_circle_doubling(11)
    arc = SetFamily.from_state_sets(11, [range(6), range(6, 11)])
    f = Potential.constant(0.0, 11)
    # Two states in one itinerary cell: the at-most-one condition fails.
    joined = orbit_join(sys, arc, (2,))
    cell = member_states(joined, 0)
    report = separated_entropy_link_check(sys, f, arc, (2,), cell[:2], arc)
    assert not report.applicable


def test_empirical_measures_refuse_repeated_and_outside_states():
    # Unchecked, [0, 0, 1] gives a sigma of mass 0.645 here and [-1] one on
    # state 3, and the link check indexes the join's labels with them.
    sys = three_cycle_system()
    f = Potential(np.array([0.3, -0.2, 0.1, 0.5]))
    part = SetFamily.singletons(4)
    for separated, message in (
        ([0, 0, 1], "state 0 is repeated"),
        ([-1], "state -1 is outside 0..3"),
        ([2, 4], "state 4 is outside 0..3"),
        ([], "nonempty"),
    ):
        with pytest.raises(ValueError, match=message):
            empirical_measures(sys, f, (2,), separated)
        with pytest.raises(ValueError, match=message):
            separated_entropy_link_check(sys, f, part, (2,), separated, part)
    emp = empirical_measures(sys, f, (2,), np.array([1, 0]))
    assert is_probability(emp.sigma) and is_probability(emp.averaged)
    assert np.flatnonzero(emp.sigma.weights).tolist() == [0, 1]


def test_doubling_entropy_rate_near_log2():
    sys = make_circle_doubling(100003)
    mu = FiniteMeasure.uniform_on(range(100003), 100003)
    arc = SetFamily.from_labels((np.arange(100003) >= 50002).astype(np.int64))
    est = entropy_rate(mu, sys, arc, 10)
    assert abs(est.samples[-1].rate - math.log(2)) < 0.05


def test_variation_distance_symmetry():
    a = FiniteMeasure(np.array([0.5, 0.5, 0.0]))
    b = FiniteMeasure(np.array([0.0, 0.5, 0.5]))
    assert variation_distance(a, b) == pytest.approx(1.0)
    assert variation_distance(b, a) == pytest.approx(1.0)
