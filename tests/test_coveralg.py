"""Family algebra: joins, refinement, admissibility, closeness."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpress import coveralg
from covpress.coveralg import (
    ClosenessGraph,
    CoverBudgetError,
    SetFamily,
    box_sweep,
    classify_admissible,
    classify_admissible_partition,
    cover_from_partition,
    join,
    orbit_join,
    potential_cover,
    preimage_family,
    refines,
)
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_field,
    iter_box_maps,
    make_circle_doubling,
    make_disk_system,
    power_system,
)
from covpress.lattice import box_cardinality, diagonal


def arc_partition(m, split=None):
    split = (m + 1) // 2 if split is None else split
    return SetFamily.from_state_sets(
        m, [range(split), range(split, m)], kind="partition"
    )


def brute_itineraries(sys, family, n):
    """Itinerary classes computed point by point from the definitions."""
    labels = family.as_labels()
    groups = {}
    for x in range(sys.state_count):
        key = []
        for k in itertools.product(*(range(c) for c in n)):
            y = x
            for axis, reps in enumerate(k):
                for _ in range(reps):
                    y = int(sys.generators[axis][y])
            key.append(int(labels[y]))
        groups.setdefault(tuple(key), set()).add(x)
    return set(frozenset(g) for g in groups.values())


def family_as_sets(fam):
    return set(frozenset(fam.member_states(i)) for i in range(fam.count))


def test_construction_dedups_and_validates():
    fam = SetFamily.from_state_sets(4, [{0, 1}, {1, 0}, {2, 3}, set()])
    assert fam.count == 2
    with pytest.raises(ValueError, match="cover"):
        SetFamily.from_state_sets(4, [{0, 1}])
    with pytest.raises(ValueError, match="disjoint"):
        SetFamily.from_state_sets(4, [{0, 1}, {1, 2, 3}], kind="partition")
    with pytest.raises(ValueError, match="outside"):
        SetFamily.from_state_sets(4, [{0, 1, 2, 3, 4}])
    with pytest.raises(ValueError, match="unknown family kind"):
        SetFamily.from_state_sets(4, [range(4)], kind="bag")
    # Disjointness is read off the members, whatever kind was asked for.
    assert SetFamily.from_state_sets(4, [{0, 1}, {2, 3}]).is_partition
    assert SetFamily.trivial(4).is_partition
    # Array members are taken as they are, under the same range check.
    arrays = SetFamily.from_state_sets(4, [np.array([1, 0]), np.arange(1, 4)])
    sets = SetFamily.from_state_sets(4, [{0, 1}, {1, 2, 3}])
    assert arrays.atoms.tolist() == sets.atoms.tolist()
    assert arrays.members == sets.members
    for bad in (np.array([0, 4]), np.array([-1, 1, 2, 3])):
        with pytest.raises(ValueError, match="outside"):
            SetFamily.from_state_sets(4, [bad, np.arange(4)])


@given(
    st.integers(1, 70).flatmap(
        lambda rows: st.lists(
            st.lists(st.booleans(), min_size=rows, max_size=rows), min_size=1, max_size=40
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_unique_columns_ranks_columns_as_np_unique_does(columns):
    # Up to 64 rows the columns are ranked by one integer key each; the
    # first occurrences and ranks are those of the packed byte records.
    flags = np.array(columns, dtype=bool).T
    _, first, rank = np.unique(
        np.packbits(flags, axis=0).T, axis=0, return_index=True, return_inverse=True
    )
    got_first, got_rank = coveralg.unique_columns(flags)
    assert got_first.tolist() == first.tolist()
    assert got_rank.tolist() == rank.reshape(-1).tolist()


def test_label_and_mask_forms_agree():
    labels = np.array([0, 1, 0, 2, 1])
    fam = SetFamily.from_labels(labels)
    masks_form = SetFamily.from_state_sets(5, [{0, 2}, {1, 4}, {3}], kind="partition")
    assert fam == masks_form
    assert fam.member_states(2) == [3]
    assert [len(fam.member_states(i)) for i in range(fam.count)] == [2, 2, 1]


def test_preimage_identity_and_doubling():
    sys = make_circle_doubling(7)
    part = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}], kind="partition")
    same = preimage_family(sys, part, (0,))
    assert same == part
    pre = preimage_family(sys, part, (1,))
    assert family_as_sets(pre) == {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6})}
    assert pre.is_partition


def test_preimage_of_partition_is_partition():
    gen = np.array([0, 0, 1, 1, 2])
    sys = FiniteSystem(generators=(gen,))
    part = SetFamily.from_state_sets(5, [{0, 3}, {1, 2}, {4}], kind="partition")
    pre = preimage_family(sys, part, (1,))
    assert pre.is_partition
    assert pre.count == 2  # the class {4} has empty preimage


def test_join_idempotent_and_trivial():
    part = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}], kind="partition")
    assert join(part, part) == part
    overlapping = SetFamily.from_state_sets(7, [{0, 1, 2, 3}, {3, 4, 5, 6}])
    assert join(overlapping, SetFamily.trivial(7)) == overlapping
    # With genuine overlap the product family keeps the cross intersections.
    assert family_as_sets(join(overlapping, overlapping)) == {
        frozenset({0, 1, 2, 3}),
        frozenset({3, 4, 5, 6}),
        frozenset({3}),
    }


def test_join_pinned_example():
    evens_odds = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}], kind="partition")
    halves = SetFamily.from_state_sets(7, [{0, 1, 2, 3}, {4, 5, 6}], kind="partition")
    joined = join(evens_odds, halves)
    assert family_as_sets(joined) == {
        frozenset({0, 2}),
        frozenset({4, 6}),
        frozenset({1, 3}),
        frozenset({5}),
    }
    assert refines(joined, evens_odds) and refines(joined, halves)


def test_orbit_join_depth_one_is_family():
    sys = make_circle_doubling(11)
    part = arc_partition(11)
    assert orbit_join(sys, part, (1,)) == part


def test_orbit_join_doubling_101_eight_cells():
    sys = make_circle_doubling(101)
    part = arc_partition(101)
    joined = orbit_join(sys, part, (3,))
    assert joined.is_partition
    assert joined.count == 8
    assert brute_itineraries(sys, part, (3,)) == family_as_sets(joined)


@st.composite
def covered_systems(draw, dims=(1, 2)):
    """A small system (one generator, or commuting ones each acting on one
    coordinate of a product), an overlapping 2-3 member cover, a box."""
    dim = draw(st.sampled_from(dims))
    high = {1: 8, 2: 3, 3: 2}[dim]
    sizes = [draw(st.integers(2, high)) for _ in range(dim)]
    m = int(np.prod(sizes))
    coords = np.array(list(itertools.product(*(range(c) for c in sizes))))
    gens = []
    for axis, size in enumerate(sizes):
        local = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        moved = coords.copy()
        moved[:, axis] = local[coords[:, axis]]
        gens.append(np.ravel_multi_index(moved.T, sizes))
    state = st.integers(0, m - 1)
    sets = [set(draw(st.sets(state, min_size=1))) for _ in range(draw(st.integers(2, 3)))]
    sets[0] |= set(range(m)) - set().union(*sets)
    if all(not (a & b) for a, b in itertools.combinations(sets, 2)):
        sets[0].add(min(sets[1]))
    n = tuple(draw(st.integers(1, 3)) for _ in range(dim))
    return FiniteSystem(generators=tuple(gens)), sets, n


def shell_preimages(sys, family, n):
    """Per point of the box below n, in shell order (by max(k), then the
    last axis reaching it, then lex): the preimage of every member."""
    m = sys.state_count

    def shell_key(k):
        top = max(k)
        return top, max(a for a, c in enumerate(k) if c == top), k

    base = [frozenset(family.member_states(i)) for i in range(family.count)]
    preimages = []
    for k in sorted(itertools.product(*(range(c) for c in n)), key=shell_key):
        image = np.arange(m)
        for axis, reps in enumerate(k):
            for _ in range(reps):
                image = sys.generators[axis][image]
        preimages.append([frozenset(x for x in range(m) if image[x] in b) for b in base])
    return preimages


def assert_shell_order_join(joined, preimages, m):
    """The join's members, in order, are the first occurrences over (current
    member, step member) along the preimages; its atoms are exactly its
    membership classes; it is a partition iff its members are disjoint."""
    current = None
    for step in preimages:
        step = [p for p in step if p]
        if current is None:
            current = step
        else:
            current = list(dict.fromkeys(c & p for c in current for p in step if c & p))
    got = [frozenset(joined.member_states(i)) for i in range(joined.count)]
    assert got == list(dict.fromkeys(current))

    member_sets = [frozenset(i for i, g in enumerate(got) if x in g) for x in range(m)]
    atoms = joined.atoms.tolist()
    assert sorted(set(atoms)) == list(range(joined.atom_count))
    for x in range(m):
        for y in range(m):
            assert (atoms[x] == atoms[y]) == (member_sets[x] == member_sets[y])

    disjoint = all(not (a & b) for a, b in itertools.combinations(got, 2))
    assert joined.is_partition == disjoint


@given(covered_systems())
@settings(max_examples=60, deadline=None)
def test_orbit_join_matches_bruteforce_covers(case):
    sys, sets, n = case
    m = sys.state_count
    cover = SetFamily.from_state_sets(m, sets)
    joined = orbit_join(sys, cover, n, member_budget=10**6)
    preimages = shell_preimages(sys, cover, n)

    # Members are the nonempty intersections of one preimage per box point.
    brute = set()

    def descend(depth, acc):
        if not acc:
            return
        if depth == len(preimages):
            brute.add(acc)
            return
        for pre in preimages[depth]:
            descend(depth + 1, acc & pre)

    descend(0, frozenset(range(m)))
    assert set(family_as_sets(joined)) == brute
    assert_shell_order_join(joined, preimages, m)


@given(covered_systems(dims=(1, 2, 3)), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_box_sweep_matches_bruteforce_shells(case, as_partition, data):
    sys, sets, n = case
    m = sys.state_count
    if as_partition:
        labels = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        family = SetFamily.from_labels(np.array(labels))
    else:
        family = SetFamily.from_state_sets(m, sets)
    values = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    f = Potential(np.array(values))
    boxes = []
    for box, joined, field in box_sweep(sys, family, f, n, member_budget=10**6):
        boxes.append(box)
        assert_shell_order_join(joined, shell_preimages(sys, family, box), m)
        assert field.tobytes() == birkhoff_field(sys, f, box).tobytes()
    assert boxes == [tuple(min(t, c) for c in n) for t in range(1, max(n) + 1)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dense_unique_matches_np_unique(data):
    # Both regimes: a code space within 4 * len + 4096 takes the flag array,
    # a larger one the sort; the bytes must be np.unique's either way.
    size = data.draw(st.integers(0, 200))
    limit = 4 * size + 4096
    bound = data.draw(st.integers(1, limit) | st.integers(limit + 1, 2**40))
    codes = data.draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size))
    codes = np.array(codes, dtype=np.int64)
    for got, want in zip(coveralg._dense_unique(codes, bound), np.unique(codes, return_inverse=True)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("bound", [0, 1, 4096, 2**40])
def test_dense_unique_edge_cases(bound):
    empty = np.zeros(0, dtype=np.int64)
    codes = [empty] if bound < 1 else [empty, np.zeros(5, dtype=np.int64)]
    for c in codes:
        for got, want in zip(coveralg._dense_unique(c, bound), np.unique(c, return_inverse=True)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _sorting_unique(codes, bound):
    return np.unique(codes, return_inverse=True)


def sweep_bytes(sys, family, n):
    """Every item of the sweep: box, atom bytes and member incidence."""
    return [
        (box, joined.atoms.tobytes(), joined._incidence)
        for box, joined, _ in box_sweep(sys, family, None, n, member_budget=10**6)
    ]


@given(covered_systems(), st.sampled_from(["cover", "partition", "singletons"]), st.data())
@settings(max_examples=60, deadline=None)
def test_box_sweep_matches_a_sorting_fold(case, base, data):
    sys, sets, n = case
    m = sys.state_count
    if base == "cover":
        family = SetFamily.from_state_sets(m, sets)
    elif base == "partition":
        labels = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        family = SetFamily.from_labels(np.array(labels))
    else:
        family = SetFamily.singletons(m)
    got = sweep_bytes(sys, family, n)
    with mock.patch.object(coveralg, "_dense_unique", _sorting_unique):
        assert sweep_bytes(sys, family, n) == got


def test_box_sweep_matches_a_sorting_fold_on_both_paths():
    # Singletons on 101 and 512 states make code spaces past 4 * M + 4096,
    # so the sort path runs as well as the flag array.
    x = np.arange(1 << 9, dtype=np.int64)

    def shifted(di, dj):
        out = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                out |= ((x >> (((i + di) % 3) * 3 + (j + dj) % 3)) & 1) << (i * 3 + j)
        return out

    torus = FiniteSystem(generators=(shifted(1, 0), shifted(0, 1)))
    x00, x01 = x & 1, (x >> 1) & 1
    torus_cover = SetFamily.from_state_sets(
        x.size, [np.flatnonzero(x00 == 0), np.flatnonzero(x00 == 1), np.flatnonzero(x00 == x01)]
    )
    doubling = make_circle_doubling(101)
    arcs = SetFamily.from_state_sets(101, [range(0, 40), range(30, 80), range(70, 101)])
    cases = [
        (doubling, (4,), [arc_partition(101), arcs, SetFamily.singletons(101)]),
        (torus, (3, 2), [SetFamily.from_labels(x00), torus_cover, SetFamily.singletons(512)]),
    ]
    paths = []
    real = coveralg._dense_unique

    def spy(codes, bound):
        paths.append(bound > 4 * len(codes) + 4096)
        return real(codes, bound)

    for sys, n, families in cases:
        for family in families:
            with mock.patch.object(coveralg, "_dense_unique", spy):
                got = sweep_bytes(sys, family, n)
            with mock.patch.object(coveralg, "_dense_unique", _sorting_unique):
                assert sweep_bytes(sys, family, n) == got
    assert set(paths) == {False, True}


def test_diagonal_sweep_stops_at_member_budget():
    sys = make_circle_doubling(101)
    sweep = box_sweep(sys, arc_partition(101), None, (6,), member_budget=10)
    seen = []
    with pytest.raises(CoverBudgetError, match="has 16 members"):
        for n, joined, field in sweep:
            assert field is None
            seen.append((n, joined.count))
    assert seen == [((1,), 2), ((2,), 4), ((3,), 8)]


def test_diagonal_sweep_stops_at_box_budget(monkeypatch):
    # Every box within the budget is yielded before the first one over it
    # raises, and that box is refused before its shell is walked.
    monkeypatch.setattr(coveralg, "DEFAULT_LAMBDA_BUDGET", 9)
    walked = []

    def counted(sys, n):
        for item in iter_box_maps(sys, n):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(coveralg, "iter_box_maps", counted)
    sys = FiniteSystem(generators=(np.arange(3), np.arange(3)))
    sweep = box_sweep(sys, SetFamily.singletons(3), None, diagonal(5, 2))
    seen = []
    with pytest.raises(CoverBudgetError, match="box cardinality 16 exceeds budget 9"):
        for n, _, _ in sweep:
            seen.append(n)
    assert seen == [(1, 1), (2, 2), (3, 3)]
    assert len(walked) == 9


def test_orbit_join_doubling_100003_full_words():
    # Every binary word of length 10 is realized by the half-circle
    # partition when the circle carries 100003 points.
    sys = make_circle_doubling(100003)
    part = SetFamily.from_labels((np.arange(100003) >= 50002).astype(np.int64))
    joined = orbit_join(sys, part, (10,), member_budget=65536)
    assert joined.count == 1024


def test_orbit_join_member_budget():
    sys = make_circle_doubling(101)
    part = arc_partition(101)
    with pytest.raises(CoverBudgetError):
        orbit_join(sys, part, (6,), member_budget=10)
    # A box over the budget is refused before its walk starts.
    with pytest.raises(CoverBudgetError, match="exceeds budget"):
        orbit_join(sys, part, (10**6 + 1,))


def test_refines_basics():
    fam = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}], kind="partition")
    other = SetFamily.from_state_sets(7, [{0, 1}, set(range(1, 7))])
    assert refines(fam, fam)
    assert refines(join(fam, other), fam)
    assert refines(join(fam, other), other)
    assert not refines(fam, other)


@st.composite
def small_families(draw, m):
    """A random partition or overlapping cover of m states."""
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        return SetFamily.from_labels(np.array(labels))
    sets = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=5))
    return SetFamily.from_state_sets(m, sets + [set(range(m)).difference(*sets)])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_refines_matches_the_set_definition(data):
    m = data.draw(st.integers(1, 8))
    a, b = data.draw(small_families(m)), data.draw(small_families(m))

    def by_sets(finer, coarser):
        coarse = family_as_sets(coarser)
        return all(any(fm <= cm for cm in coarse) for fm in family_as_sets(finer))

    for finer, coarser in [(a, b), (b, a), (join(a, b), a), (a, join(a, b)), (a, a)]:
        assert refines(finer, coarser) == by_sets(finer, coarser)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_refinement_is_preserved_by_orbit_join(seed, depth):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 10))
    gen = rng.integers(0, m, size=m).astype(np.int64)
    sys = FiniteSystem(generators=(gen,))
    coarse = SetFamily.from_labels(rng.integers(0, 2, size=m))
    fine = join(coarse, SetFamily.from_labels(rng.integers(0, 3, size=m)))
    assert refines(fine, coarse)
    assert refines(orbit_join(sys, fine, (depth,)), orbit_join(sys, coarse, (depth,)))


def test_power_system_join_identity():
    # Joining the n-join under the n-power system over m equals the nm-join.
    sys = make_circle_doubling(31)
    part = arc_partition(31)
    n, m = (2,), (3,)
    inner = orbit_join(sys, part, n)
    outer = orbit_join(power_system(sys, n), inner, m)
    direct = orbit_join(sys, part, (6,))
    assert outer == direct


def test_join_member_count_bound():
    sys = make_circle_doubling(101)
    part = arc_partition(101)
    for depth in (2, 3, 4):
        joined = orbit_join(sys, part, (depth,))
        assert joined.count <= part.count ** box_cardinality((depth,))


def test_classify_admissible_no_marked():
    sys = make_circle_doubling(7)
    rep = classify_admissible(sys, arc_partition(7))
    assert rep.is_admissible and rep.is_strongly_admissible


def test_classify_admissible_disk():
    sys = make_disk_system(4, 6)
    m = sys.state_count
    outer = set(range(1 + 2 * 6, m))  # two outermost rings, contains marked
    inner = [{s} for s in range(1 + 2 * 6)]
    fam = SetFamily.from_state_sets(m, [outer] + inner)
    rep = classify_admissible(sys, fam)
    assert rep.is_admissible and not rep.is_strongly_admissible
    assert rep.witness == 0

    # Pizza slices: every member meets the marked ring but never contains it.
    half = [1 + i * 6 + j for i in range(4) for j in range(3)]
    other = [1 + i * 6 + j for i in range(4) for j in range(3, 6)]
    slices = SetFamily.from_state_sets(m, [{0}, set(half), set(other)])
    rep2 = classify_admissible(sys, slices)
    assert not rep2.is_admissible


def test_classify_admissible_partition_reports_noncompact():
    sys = make_disk_system(3, 4)
    m = sys.state_count
    outer = set(range(1 + 2 * 4, m))
    rest = set(range(0, 1 + 2 * 4))
    part = SetFamily.from_state_sets(m, [rest, outer], kind="partition")
    rep = classify_admissible_partition(sys, part)
    assert rep.is_admissible_partition and rep.noncompact_index == 1

    split_outer = SetFamily.from_state_sets(
        m, [rest, set(list(outer)[:2]), set(list(outer)[2:])], kind="partition"
    )
    assert not classify_admissible_partition(sys, split_outer).is_admissible_partition


def test_cover_from_partition():
    sys = FiniteSystem(generators=(np.arange(6),), marked=frozenset({5}))
    part = SetFamily.from_state_sets(
        6, [{0, 5}, {1, 2}, {3}, {4}], kind="partition"
    )
    cov = cover_from_partition(sys, part)
    assert cov.count == 3
    k0 = frozenset({0, 5})
    assert all(k0 <= s for s in family_as_sets(cov))
    rep = classify_admissible(sys, cov)
    assert rep.is_strongly_admissible

    two = SetFamily.from_state_sets(6, [{0, 5}, {1, 2, 3, 4}], kind="partition")
    cov2 = cover_from_partition(sys, two)
    assert cov2.count == 1
    assert family_as_sets(cov2) == {frozenset(range(6))}


def test_cover_from_partition_rejects_bad_input():
    sys = FiniteSystem(generators=(np.arange(4),), marked=frozenset({0, 3}))
    part = SetFamily.from_state_sets(4, [{0, 1}, {2, 3}], kind="partition")
    with pytest.raises(ValueError, match="admissible"):
        cover_from_partition(sys, part)


def test_potential_cover_constant():
    sys = make_circle_doubling(9)
    fam = potential_cover(sys, Potential.constant(0.0, 9), eps=1.0)
    assert fam.count == 1


def test_potential_cover_two_level():
    sys = make_circle_doubling(9)
    f = Potential.indicator(range(4), 9)
    fam = potential_cover(sys, f, eps=0.5)
    assert family_as_sets(fam) == {frozenset(range(4)), frozenset(range(4, 9))}


def test_potential_cover_wide_eps_admissible():
    sys = make_disk_system(3, 4)
    f = Potential(np.linspace(0, 0.3, sys.state_count))
    # Make it constant on the marked ring so the model precondition holds.
    vals = f.values.copy()
    vals[list(sys.marked)] = 0.3
    f = Potential(vals)
    fam = potential_cover(sys, f, eps=2 * 0.3 + 0.1)
    assert any(
        set(fam.member_states(i)) == set(range(sys.state_count))
        for i in range(fam.count)
    )
    assert classify_admissible(sys, fam).is_admissible


def test_potential_cover_requires_constant_on_marked():
    sys = make_disk_system(3, 4)
    f = Potential(np.arange(sys.state_count, dtype=float))
    with pytest.raises(ValueError, match="constant on marked"):
        potential_cover(sys, f, eps=1.0)


def test_potential_cover_diameter_bound():
    sys = make_circle_doubling(31)
    rng = np.random.default_rng(5)
    f = Potential(rng.uniform(-1, 1, size=31))
    eps = 0.4
    fam = potential_cover(sys, f, eps)
    for i in range(fam.count):
        states = fam.member_states(i)
        spread = max(f.values[s] for s in states) - min(f.values[s] for s in states)
        assert spread < eps


def test_potential_cover_box_level_bound():
    # States sharing a member of the box join have ergodic sums within
    # eps per box point.
    from covpress.dynsys import birkhoff_field

    sys = make_circle_doubling(23)
    rng = np.random.default_rng(13)
    f = Potential(rng.uniform(-1, 1, size=23))
    eps = 0.5
    fam = potential_cover(sys, f, eps)
    for t in (1, 2, 3):
        joined = orbit_join(sys, fam, (t,), member_budget=10**5)
        field = birkhoff_field(sys, f, (t,))
        for i in range(joined.count):
            states = joined.member_states(i)
            vals = [field[s] for s in states]
            assert max(vals) - min(vals) <= t * eps + 1e-12


def test_ks_entropy_cap_enforced():
    from covpress.measpressure import FiniteMeasure, ks_entropy

    sys = make_circle_doubling(11)
    with pytest.raises(ValueError, match="cap"):
        ks_entropy(FiniteMeasure.uniform(11), sys, strategy="exhaustive", state_cap=8)


def test_closeness_graph_extremes():
    sys = make_circle_doubling(5)
    g = ClosenessGraph(orbit_join(sys, SetFamily.singletons(5), (1,)))
    assert g.class_adjacency() == [0] * 5
    # One class holding every state: all states are close, with no edge to draw.
    g2 = ClosenessGraph(orbit_join(sys, SetFamily.trivial(5), (2,)))
    assert g2.class_adjacency() == [0]
    assert g2.class_sizes.tolist() == [5] and g2.holds is None


def test_closeness_components_match_itineraries():
    sys = make_circle_doubling(5)
    part = SetFamily.from_state_sets(5, [{0, 1, 2}, {3, 4}], kind="partition")
    joined = orbit_join(sys, part, (2,))
    g = ClosenessGraph(joined)
    # A partition's graph is a disjoint union of cliques, one per itinerary cell.
    assert g.class_adjacency() == [0] * joined.count
    classes = {frozenset(np.flatnonzero(joined.atoms == a).tolist()) for a in g.class_atoms}
    assert classes == family_as_sets(joined) == brute_itineraries(sys, part, (2,))


def test_closeness_graph_cover_classes():
    fam = SetFamily.from_state_sets(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    g = ClosenessGraph(fam)
    # Memberships {0}, {0,1}, {1,2}, {2,3}, {3}: one class per state, a path.
    assert [tuple(np.flatnonzero(held)) for held in g.holds.T] == [
        (0,), (0, 1), (1, 2), (2, 3), (3,)
    ]
    assert g.class_sizes.tolist() == [1] * 5
    # Classes sharing a member, each with itself: the path with loops.
    assert [sum(1 << c for c in np.flatnonzero(row)) for row in g.shares] == [
        0b00011, 0b00111, 0b01110, 0b11100, 0b11000
    ]
    assert g.class_adjacency() == [0b00010, 0b00101, 0b01010, 0b10100, 0b01000]


def test_intersection_counting_bound():
    # Any refinement of the glued cover meets at most 2^lambda(n) itinerary
    # classes of the generating partition.
    rng = np.random.default_rng(23)
    for _ in range(12):
        m = int(rng.integers(6, 12))
        gen = rng.integers(0, m, size=m).astype(np.int64)
        marked = frozenset({int(rng.integers(0, m))})
        sys = FiniteSystem(generators=(gen,), marked=marked)
        labels = rng.integers(0, 3, size=m)
        labels[list(marked)] = 0  # K0 carries the marked state
        part = SetFamily.from_labels(labels)
        if part.count < 2:
            continue
        if not classify_admissible_partition(sys, part).is_admissible_partition:
            continue
        cover = cover_from_partition(sys, part)
        refining = join(cover, SetFamily.from_labels(rng.integers(0, 2, size=m)))
        depth = int(rng.integers(1, 4))
        joined_ref = orbit_join(sys, refining, (depth,))
        joined_part = orbit_join(sys, part, (depth,))
        part_masks = joined_part.members
        for i in range(joined_ref.count):
            mask = 0
            for s in joined_ref.member_states(i):
                mask |= 1 << s
            touched = sum(1 for pm in part_masks if pm & mask)
            assert touched <= 2 ** box_cardinality((depth,))
