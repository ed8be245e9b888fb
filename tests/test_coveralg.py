"""Family algebra: joins, refinement, admissibility, closeness."""

import contextlib
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covpress import coveralg
from covpress.coveralg import (
    ClosenessGraph,
    CoverBudgetError,
    SetFamily,
    box_join,
    box_sweep,
    classify_admissible,
    cover_from_partition,
    is_join_stable,
    join,
    potential_cover,
    refines,
    state_field,
)
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_field,
    iter_box_pullbacks,
    make_circle_doubling,
    make_disk_system,
)
from covpress.experiments import annulus_cell_partition
from covpress.lattice import EmptyBoxError, box_cardinality, diagonal
from covpress.toppressure import pressure_quadruple
from oracles import member_states, orbit_join, overlap_cover, power_system, torus_shift


def arc_partition(m, split=None):
    split = (m + 1) // 2 if split is None else split
    family = SetFamily.from_state_sets(m, [range(split), range(split, m)])
    assert family.is_partition
    return family


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
    return set(frozenset(member_states(fam, i)) for i in range(fam.count))


def test_construction_dedups_and_validates():
    fam = SetFamily.from_state_sets(4, [{0, 1}, {1, 0}, {2, 3}, set()])
    assert fam.count == 2
    with pytest.raises(ValueError, match="cover"):
        SetFamily.from_state_sets(4, [{0, 1}])
    assert not SetFamily.from_state_sets(4, [{0, 1}, {1, 2, 3}]).is_partition
    with pytest.raises(ValueError, match="outside"):
        SetFamily.from_state_sets(4, [{0, 1, 2, 3, 4}])
    # Disjointness is read off the members.
    assert SetFamily.from_state_sets(4, [{0, 1}, {2, 3}]).is_partition
    assert SetFamily.trivial(4).is_partition
    # Array members are taken as they are, under the same range check.
    arrays = SetFamily.from_state_sets(4, [np.array([1, 0]), np.arange(1, 4)])
    sets = SetFamily.from_state_sets(4, [{0, 1}, {1, 2, 3}])
    assert arrays.atoms.tolist() == sets.atoms.tolist()
    assert arrays.incidence.tolist() == sets.incidence.tolist()
    for bad in (np.array([0, 4]), np.array([-1, 1, 2, 3])):
        with pytest.raises(ValueError, match="outside"):
            SetFamily.from_state_sets(4, [bad, np.arange(4)])


def test_a_cover_stores_its_incidence_once_as_read_only_bool():
    # Every cover, however built, holds one bool members x atoms array from
    # construction on: the same object on every read, and not writable.
    sys = make_circle_doubling(11)
    cover = SetFamily.from_state_sets(11, [range(7), range(5, 11)])
    joined, _ = box_join(sys, cover, None, (3,))
    disk = make_disk_system(4, 8)
    strong = cover_from_partition(disk, annulus_cell_partition(disk, 4, 8, 1))
    for family in (cover, joined, join(cover, cover), strong):
        rows = family.incidence
        assert family.incidence is rows
        assert isinstance(rows, np.ndarray) and rows.dtype == np.dtype(bool)
        assert rows.shape == (family.count, family.atom_count)
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = not rows[0, 0]
    assert arc_partition(11).incidence is None


@pytest.mark.parametrize("n", [(0,), (0, 3), (3, 0)])
def test_an_empty_box_is_refused_before_any_walk(n):
    if len(n) == 1:
        sys, family = make_circle_doubling(7), SetFamily.from_state_sets(7, [range(4), range(3, 7)])
    else:
        sys, x = torus_shift(2, 2)
        family = SetFamily.from_labels(x & 1)
    zero = Potential.constant(0.0, sys.state_count)
    for walk in (
        lambda: box_join(sys, family, None, n),
        lambda: list(box_sweep(sys, family, None, n)),
        lambda: pressure_quadruple(sys, zero, family, n),
    ):
        with pytest.raises(EmptyBoxError, match=re.escape(f"box {n} is empty")):
            walk()


@st.composite
def bool_matrices(draw):
    """A bool matrix of 0-70 rows and 0-40 columns, its columns random or
    all equal; the row counts around the byte and code-width edges are
    drawn more often."""
    rows = draw(st.sampled_from([0, 1, 8, 9, 13, 17, 62, 63, 64, 65]) | st.integers(1, 70))
    count = draw(st.integers(0, 40))
    column = st.lists(st.booleans(), min_size=rows, max_size=rows)
    if draw(st.booleans()):
        columns = [draw(column)] * count
    else:
        columns = draw(st.lists(column, min_size=count, max_size=count))
    return np.array(columns, dtype=bool).reshape(count, rows).T


@given(bool_matrices())
@settings(max_examples=300, deadline=None)
def test_unique_columns_ranks_columns_as_np_unique_does(flags):
    # Up to 64 rows the columns are ranked as uint64 codes, through the flag
    # array up to 12 rows and by a sort past them; taller ones are sorted
    # as records.  The first occurrences and ranks are those of the packed
    # byte records.
    _, first, rank = np.unique(
        np.packbits(flags, axis=0).T, axis=0, return_index=True, return_inverse=True
    )
    got_first, got_rank = coveralg.unique_columns(flags)
    assert got_first.tolist() == first.tolist()
    assert got_rank.tolist() == rank.reshape(-1).tolist()


INT64 = st.integers(-(2**63), 2**63 - 1)


@given(
    st.one_of(
        st.lists(st.booleans(), max_size=40).map(lambda xs: np.array(xs, dtype=bool)),
        st.lists(st.integers(-6, 6), max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.lists(st.integers(-5000, 5000), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.lists(INT64, max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.tuples(INT64, st.integers(0, 40)).map(lambda c: np.full(c[1], c[0], dtype=np.int64)),
    )
)
@example(np.array([0, 4103]))  # a range at the flag bound of two labels
@example(np.array([0, 4104]))  # one past it
@example(np.array([-(2**63), 2**63 - 1]))  # a range whose shift would overflow
@settings(max_examples=300, deadline=None)
def test_from_labels_ranks_labels_as_np_unique_does(labels):
    # Label ranges within the flag bound are ranked without a sort, wider
    # ones sorted as given; either way the atoms are np.unique's ranks.
    _, want = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    family = SetFamily.from_labels(labels)
    assert (family.atoms.dtype, family.atoms.tobytes()) == (want.dtype, want.tobytes())
    assert family.count == len(set(labels.tolist())) and family.is_partition


@given(
    st.integers(0, 80).flatmap(
        lambda width: st.tuples(
            st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=20)
        )
    )
)
@example((0, []))
@example((0, [0, 0]))
@example((13, [1 << 12, 0, 5]))
@settings(max_examples=200, deadline=None)
def test_bitmask_codec_round_trips(case):
    # Widths 0 and non-multiples of 8 included: entry (i, j) is bit j of
    # mask i, and packing the rows gives the masks back.
    width, masks = case
    rows = coveralg.bool_rows(masks, width)
    assert (rows.dtype, rows.shape) == (np.dtype(bool), (len(masks), width))
    assert rows.tolist() == [[bool(m >> j & 1) for j in range(width)] for m in masks]
    assert coveralg.row_masks(rows) == masks


@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.sets(st.integers(0, m - 1)), max_size=6))
    )
)
@settings(max_examples=200, deadline=None)
def test_incidence_rows_are_the_member_states(case):
    # Row i of the incidence, read through the atoms, is member i's state
    # set; the members are the nonempty input sets, each once.  States no
    # set holds get a singleton each, so partitions come up too.
    m, sets = case
    covered = set().union(*sets)
    sets = [*sets, *({x} for x in range(m) if x not in covered)]
    fam = SetFamily.from_state_sets(m, sets)
    rows = fam.incidence
    if fam.is_partition:
        assert rows is None
        rows = np.arange(fam.atom_count)[:, None] == np.arange(fam.atom_count)
    assert rows.shape == (fam.count, fam.atom_count)
    got = [np.flatnonzero(row[fam.atoms]).tolist() for row in rows]
    assert got == [member_states(fam, i) for i in range(fam.count)]
    assert set(map(frozenset, got)) == {frozenset(s) for s in sets if s}
    assert len(got) == len(set(map(frozenset, got)))


def test_label_and_mask_forms_agree():
    labels = np.array([0, 1, 0, 2, 1])
    fam = SetFamily.from_labels(labels)
    sets_form = SetFamily.from_state_sets(5, [{0, 2}, {1, 4}, {3}])
    assert sets_form.is_partition and fam == sets_form
    assert member_states(fam, 2) == [3]
    assert [len(member_states(fam, i)) for i in range(fam.count)] == [2, 2, 1]


def test_join_idempotent_and_trivial():
    part = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}])
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
    evens_odds = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}])
    halves = SetFamily.from_state_sets(7, [{0, 1, 2, 3}, {4, 5, 6}])
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

    base = [frozenset(member_states(family, i)) for i in range(family.count)]
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
    got = [frozenset(member_states(joined, i)) for i in range(joined.count)]
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
        assert state_field(joined, field).tobytes() == birkhoff_field(sys, f, box).tobytes()
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


@given(st.integers(1, 300), st.integers(0, 300), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_dense_unique_returns_the_codes_when_every_code_occurs(bound, extra, rnd):
    # Every code in [0, bound) occurs, so each code's rank is the code: the
    # input array itself comes back, and it is np.unique's inverse.
    codes = list(range(bound)) + [rnd.randrange(bound) for _ in range(extra)]
    rnd.shuffle(codes)
    codes = np.array(codes, dtype=np.int64)
    distinct, rank = coveralg._dense_unique(codes, bound)
    assert rank is codes
    for got, want in zip((distinct, rank), np.unique(codes, return_inverse=True)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # uint64 codes, as `unique_columns` makes, still get int64 ranks by the gather.
    wide = codes.astype(np.uint64)
    rank = coveralg._dense_unique(wide, bound)[1]
    assert rank.dtype == np.int64 and rank.tobytes() == codes.tobytes()


def _sorting_unique(codes, bound):
    return np.unique(codes, return_inverse=True)


def incidence_bytes(family):
    rows = family.incidence
    return None if rows is None else (rows.shape, rows.tobytes())


def sweep_bytes(sys, family, n):
    """Every item of the sweep: box, atom bytes and member incidence."""
    return [
        (box, joined.atoms.tobytes(), incidence_bytes(joined))
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
    torus, x = torus_shift(3, 3)
    torus_cover = overlap_cover(x)
    doubling = make_circle_doubling(101)
    arcs = SetFamily.from_state_sets(101, [range(0, 40), range(30, 80), range(70, 101)])
    cases = [
        (doubling, (4,), [arc_partition(101), arcs, SetFamily.singletons(101)]),
        (torus, (3, 2), [SetFamily.from_labels(x & 1), torus_cover, SetFamily.singletons(512)]),
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


def test_swept_atoms_ranked_in_place_stay_read_only_and_exact():
    # Sweeps in which every pair code occurs at some box: the doubling arcs
    # at m = 101 (2**t itineraries up to t = 6) and the 2 x 3 torus, whose
    # window patterns all occur.  Ranks that are the codes themselves are
    # handed out as the yielded atoms, so the sweep must join the next box
    # into a fresh buffer: every kept item stays read-only and equals a
    # fresh `box_join` at its box.
    torus, x = torus_shift(2, 3)
    cases = [
        (make_circle_doubling(101), (10,), [arc_partition(101)]),
        (torus, (2, 3), [SetFamily.from_labels(x & 1), overlap_cover(x)]),
    ]
    in_place = []
    real = coveralg._dense_unique

    def spy(codes, bound):
        distinct, rank = real(codes, bound)
        in_place.append(rank is codes)
        return distinct, rank

    for sys, n, families in cases:
        for family in families:
            with mock.patch.object(coveralg, "_dense_unique", spy):
                items = list(box_sweep(sys, family, None, n, member_budget=10**6))
            for box, joined, _ in items:
                assert not joined.atoms.flags.writeable
                fresh = box_join(sys, family, None, box, member_budget=10**6)[0]
                assert joined.atoms.tobytes() == fresh.atoms.tobytes()
                assert joined.atom_count == fresh.atom_count
                assert incidence_bytes(joined) == incidence_bytes(fresh)
    assert True in in_place and False in in_place


def per_point_ranked_sweep(sys, family, n, member_budget, walked):
    """The partition sweep ranking its pair codes at every box point: yields
    (box, atom bytes, class count) after each shell and raises the sweep's
    budget error at the first point whose join has too many classes.
    `walked` counts the points joined so far."""
    atoms, count = family.atoms, family.atom_count
    boxes = iter([tuple(min(t, c) for c in n) for t in range(1, max(n) + 1)])
    box = next(boxes)
    identity = np.arange(sys.state_count)
    for point, (_, (tk,)) in enumerate(iter_box_pullbacks(sys, n, (identity,))):
        lam = box_cardinality(box)
        if point == lam:
            yield box, atoms.tobytes(), count
            box = next(boxes)
            lam = box_cardinality(box)
        walked[0] += 1
        if point:
            codes = atoms * family.atom_count + family.atoms[tk]
            distinct, atoms = np.unique(codes, return_inverse=True)
            count = len(distinct)
        if count > member_budget:
            raise CoverBudgetError(
                f"join over box {box} (cardinality {lam}) has {count} members, "
                f"budget {member_budget}"
            )
    yield box, atoms.tobytes(), count


@given(covered_systems(dims=(1, 2, 3)), st.data())
@settings(max_examples=200, deadline=None)
def test_deferred_ranking_matches_a_per_point_ranked_fold(case, data):
    # Within a shell the sweep leaves partition codes unranked up to the
    # member budget and the flag bound; a flag bound patched low makes it
    # rank mid-shell too.  Atoms, counts and budget errors must be those of
    # ranking at every point, raised after the same number of points.
    sys, _, n = case
    m = sys.state_count
    classes = data.draw(st.integers(1, 5))
    family = SetFamily.from_labels(
        np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=m, max_size=m)))
    )
    space = family.count ** box_cardinality(n)  # the code space of the whole box
    budget = data.draw(st.integers(1, m + 1) | st.integers(m + 1, space + m + 1))
    flag_bound = data.draw(st.none() | st.integers(0, 60))

    def run(sweep):
        items = []
        try:
            for item in sweep:
                items.append(item)
        except CoverBudgetError as exc:
            return items, str(exc)
        return items, None

    want_walked = [0]
    want = run(per_point_ranked_sweep(sys, family, n, budget, want_walked))
    got_walked = [0]

    def counted(sys, n, arrays):
        for item in iter_box_pullbacks(sys, n, arrays):
            got_walked[0] += 1
            yield item

    patches = [mock.patch.object(coveralg, "iter_box_pullbacks", counted)]
    if flag_bound is not None:
        patches.append(mock.patch.object(coveralg, "_flag_bound", lambda size: flag_bound))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        items, error = run(box_sweep(sys, family, None, n, member_budget=budget))
    got = [(box, joined.atoms.tobytes(), joined.count) for box, joined, _ in items], error
    assert got == want
    if error is not None:
        assert got_walked == want_walked


@pytest.mark.parametrize(
    "m, dtype",
    [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_narrow_labels_join_as_int64_at_the_dtype_boundaries(m, dtype):
    # The sweep walks atom labels in the narrowest unsigned dtype that holds
    # them.  Singletons on m states fill that dtype (256, 65,536) or just
    # pass it (257, 65,537), and their first join's pair codes pass 2**8 or
    # 2**16: codes computed in the labels' dtype would wrap or overflow.
    x = np.arange(m, dtype=np.int64)
    sys = FiniteSystem(generators=((3 * x + 1) % m,))
    family = SetFamily.singletons(m)
    f = Potential(np.random.default_rng(m).normal(size=m))
    n = (3,)
    walked = []

    def counted(sys, n, arrays):
        walked.append(arrays[0].dtype)
        yield from iter_box_pullbacks(sys, n, arrays)

    with mock.patch.object(coveralg, "iter_box_pullbacks", counted):
        items = list(box_sweep(sys, family, f, n, member_budget=10**6))
        joined, field = box_join(sys, family, f, n, member_budget=10**6)
    assert walked == [dtype, dtype]
    want = list(per_point_ranked_sweep(sys, family, n, 10**6, [0]))
    assert [(box, j.atoms.tobytes(), j.count) for box, j, _ in items] == want
    assert (joined.atoms.tobytes(), joined.count) == want[-1][1:]
    for box, swept_join, swept in items:
        assert state_field(swept_join, swept).tobytes() == birkhoff_field(sys, f, box).tobytes()
    assert state_field(joined, field).tobytes() == birkhoff_field(sys, f, n).tobytes()


@given(
    st.integers(1, 9).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
        )
    ),
    st.sampled_from(["flat", "per-state", None]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_a_stable_partition_sweep_keeps_the_joins_and_fields(case, kind, tight, data):
    # Swept to 2M + 2, well past the depth where a 1-d partition join stops
    # refining: the points after it join nothing, yet every item keeps the
    # shell-order join and the birkhoff bytes, and the box join, ranked only
    # past the budget when it is tight, is the sweep's last item.
    gen, labels = (np.array(v) for v in case)
    sys = FiniteSystem(generators=(gen,))
    m = sys.state_count
    family = SetFamily.from_labels(labels)
    if kind == "flat":
        phi = data.draw(st.lists(FIELD_VALUES, min_size=family.atom_count, max_size=family.atom_count))
        f = Potential(np.array(phi)[family.atoms])
    elif kind == "per-state":
        f = Potential(np.array(data.draw(st.lists(FIELD_VALUES, min_size=m, max_size=m))))
    else:
        f = None
    n = (2 * m + 2,)
    budget = m if tight else 10**6
    items = list(box_sweep(sys, family, f, n, member_budget=budget))
    assert [box for box, _, _ in items] == [(t,) for t in range(1, n[0] + 1)]
    for box, joined, field in items:
        assert_shell_order_join(joined, shell_preimages(sys, family, box), m)
        if f is None:
            assert field is None
        else:
            assert state_field(joined, field).tobytes() == birkhoff_field(sys, f, box).tobytes()
    joined, field = box_join(sys, family, f, n, member_budget=budget)
    assert joined.atoms.tobytes() == items[-1][1].atoms.tobytes()
    if f is not None:
        assert state_field(joined, field).tobytes() == state_field(*items[-1][1:]).tobytes()


def test_stable_partition_sweeps_stop_joining_on_the_leakage_grid():
    # At 64 x 256 the annulus partition refines at its first 6 joins and
    # repeats at the 7th, the trivial partition repeats at once: the other
    # points of the 12-point sweep join nothing.
    rings, sectors = 64, 256
    sys = make_disk_system(rings, sectors)
    f0 = Potential.constant(0.0, sys.state_count)
    for family, joins, counts in (
        (annulus_cell_partition(sys, rings, sectors, 16), 7, [12290, 13170, 13557, 13851, 14015, 14084] + [14143] * 6),
        (SetFamily.trivial(sys.state_count), 1, [1] * 12),
    ):
        with mock.patch.object(coveralg, "_join_atoms", wraps=coveralg._join_atoms) as spy:
            items = list(box_sweep(sys, family, f0, (12,), member_budget=65536))
        assert [joined.count for _, joined, _ in items] == counts
        assert spy.call_count == joins


def test_a_2d_sweep_joins_at_every_point():
    # The stable-join shortcut rests on a 1-d recurrence.  Here the first
    # generator is the identity, so the ranked join at (1, 0) adds no atom,
    # yet the shift along the second axis splits every pair at (0, 1).
    m = 8
    sys = FiniteSystem(generators=(np.arange(m), (np.arange(m) + 1) % m))
    family = SetFamily.from_labels(np.arange(m) // 2)
    with mock.patch.object(coveralg, "_join_atoms", wraps=coveralg._join_atoms) as spy:
        items = list(box_sweep(sys, family, None, (2, 2), member_budget=m))
    assert [joined.count for _, joined, _ in items] == [4, 8]
    assert spy.call_count == box_cardinality((2, 2)) - 1


def test_a_deferred_code_space_is_not_an_atom_count():
    # On the 7-cycle labelled 0000001 the joins of 2, 3 and 4 points have
    # 3, 4 and 5 atoms.  Under a budget of 7 the 2-point codes stay unranked
    # with code space 4, which the 3-point join's 4 atoms do not repeat.
    sys = FiniteSystem(generators=((np.arange(7) + 1) % 7,))
    family = SetFamily.from_labels(np.arange(7) == 6)
    assert [orbit_join(sys, family, (t,), member_budget=7).count for t in (3, 4, 7)] == [4, 5, 7]


def test_yielded_fields_are_never_written_again():
    # Shells of the (3, 4) box hold 1, 3, 5 and 3 points; every field kept
    # from the sweep must still be the ergodic sum over its own box.
    x = np.arange(35)
    rows, cols = x // 7, x % 7
    sys = FiniteSystem(generators=((2 * rows) % 5 * 7 + cols, rows * 7 + (3 * cols + 1) % 7))
    f = Potential(np.sin(x * 1.3))
    for family in (SetFamily.from_labels(x % 3), SetFamily.from_state_sets(35, [range(20), range(15, 35)])):
        items = list(box_sweep(sys, family, f, (3, 4)))
        assert [box for box, _, _ in items] == [(1, 1), (2, 2), (3, 3), (3, 4)]
        for box, joined, field in items:
            assert state_field(joined, field).tobytes() == birkhoff_field(sys, f, box).tobytes()


# Signed zeros, and magnitudes far enough apart that the order of the
# additions shows in the bytes.
FIELD_VALUES = st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.3, 1e16, -1e16, 1.0, 2.5e-8])


@given(covered_systems(), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_swept_and_joined_fields_are_the_birkhoff_bytes(case, as_partition, flat, data):
    # A potential flat on the family's atoms is summed over itineraries, the
    # walk carrying the atom labels alone; any other potential is pulled back
    # with them.  Either way every field kept from the sweep, and the box's
    # own field, has the bytes of the per-state sum.
    sys, sets, n = case
    m = sys.state_count
    if as_partition:
        labels = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        family = SetFamily.from_labels(np.array(labels))
    else:
        family = SetFamily.from_state_sets(m, sets)
    if flat:
        phi = data.draw(st.lists(FIELD_VALUES, min_size=family.atom_count, max_size=family.atom_count))
        values = np.array(phi)[family.atoms]
        # Either sign of zero may stand for an atom's 0.
        signs = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        values[(values == 0) & signs] = -0.0
    else:
        values = np.array(data.draw(st.lists(FIELD_VALUES, min_size=m, max_size=m)))
    f = Potential(values)
    is_flat = all(len(set(values[family.atoms == a].tolist())) == 1 for a in range(family.atom_count))

    carried = []

    def counted(sys, n, arrays):
        carried.append(len(arrays))
        yield from iter_box_pullbacks(sys, n, arrays)

    with mock.patch.object(coveralg, "iter_box_pullbacks", counted):
        items = list(box_sweep(sys, family, f, n, member_budget=10**6))
        joined, field = box_join(sys, family, f, n, member_budget=10**6)
    assert carried == ([1, 1] if is_flat else [2, 2])
    for box, swept_join, swept in items:
        assert state_field(swept_join, swept).tobytes() == birkhoff_field(sys, f, box).tobytes()
    assert state_field(joined, field).tobytes() == birkhoff_field(sys, f, n).tobytes()
    assert joined.atoms.tobytes() == items[-1][1].atoms.tobytes()


def test_a_cover_joined_into_a_partition_keeps_its_atom_sums():
    # Under T = (2, 0, 2) the cover {0, 1}, {1, 2} joins over the box (2,)
    # into {1}, {0}, {2}: pairwise disjoint, so the join's atoms are
    # numbered by member, not in pair-code order, and the flat field's
    # sums must move with them.
    sys = FiniteSystem(generators=(np.array([2, 0, 2]),))
    cover = SetFamily.from_state_sets(3, [{0, 1}, {1, 2}])
    f = Potential(np.array([0.5, -1.25, 3.0]))
    want = birkhoff_field(sys, f, (2,))
    joined, field = box_join(sys, cover, f, (2,))
    assert joined.is_partition and joined.atoms.tolist() == [1, 0, 2]
    assert isinstance(field, coveralg.AtomSums)
    assert state_field(joined, field).tobytes() == want.tobytes()
    swept, swept_field = list(box_sweep(sys, cover, f, (2,)))[-1][1:]
    assert state_field(swept, swept_field).tobytes() == want.tobytes()


def test_flat_fields_keep_the_order_and_sign_of_each_term():
    # On the 6-cycle with the parity partition, 0.1 + 1e16 + 0.1 + ... is
    # not 1e16 + 0.1 + ..., and a field of signed zeros is +0.0.
    sys = FiniteSystem(generators=((np.arange(6) + 1) % 6,))
    family = SetFamily.from_labels(np.arange(6) % 2)
    potentials = [
        np.where(np.arange(6) % 2, 1e16, 0.1),
        np.where(np.arange(6) % 2, 0.1, 1e16),
        np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]),
        np.full(6, -0.0),
    ]
    for values in potentials:
        f = Potential(values)
        for n in [(1,), (2,), (3,), (5,)]:
            want = birkhoff_field(sys, f, n).tobytes()
            assert state_field(*box_join(sys, family, f, n)).tobytes() == want
            assert state_field(*list(box_sweep(sys, family, f, n))[-1][1:]).tobytes() == want
    assert birkhoff_field(sys, Potential(np.full(6, -0.0)), (3,)).tobytes() == np.zeros(6).tobytes()


def test_a_potential_off_the_system_is_refused():
    # One value would broadcast over any atom table; it must not pass as flat.
    sys = make_circle_doubling(7)
    for values in (np.zeros(1), np.zeros(8)):
        with pytest.raises(ValueError, match="potential does not live on this system"):
            list(box_sweep(sys, arc_partition(7), Potential(values), (3,)))
        with pytest.raises(ValueError, match="potential does not live on this system"):
            box_join(sys, arc_partition(7), Potential(values), (3,))


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

    def counted(sys, n, arrays):
        for item in iter_box_pullbacks(sys, n, arrays):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(coveralg, "iter_box_pullbacks", counted)
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
    fam = SetFamily.from_state_sets(7, [{0, 2, 4, 6}, {1, 3, 5}])
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


@given(covered_systems(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_join_stability_matches_the_set_definition(case, as_partition, data):
    sys, sets, _ = case
    m = sys.state_count
    if as_partition:
        labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        family = SetFamily.from_labels(np.array(labels))
    else:
        family = SetFamily.from_state_sets(m, sets)
    members = family_as_sets(family)

    def gains_no_member(gen):
        pulled = [frozenset(x for x in range(m) if gen[x] in member) for member in members]
        return len({a & b for a in members for b in pulled if a & b}) == len(members)

    assert is_join_stable(sys, family) == all(gains_no_member(gen) for gen in sys.generators)


def test_a_cover_with_one_member_per_state_can_gain_members():
    # {0, 1} and {0} pulled back through the swap are {0, 1} and {1}: the
    # join gains {1}, though the cover has as many members as states.
    sys = FiniteSystem(generators=(np.array([1, 0]),))
    assert not is_join_stable(sys, SetFamily.from_state_sets(2, [{0, 1}, {0}]))


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
    part = SetFamily.from_state_sets(m, [rest, outer])
    assert part.is_partition
    rep = classify_admissible(sys, part)
    assert rep.is_admissible and rep.witness == 1

    split_outer = SetFamily.from_state_sets(m, [rest, set(list(outer)[:2]), set(list(outer)[2:])])
    assert split_outer.is_partition
    assert not classify_admissible(sys, split_outer).is_admissible


@st.composite
def disk_families(draw):
    """A small disk system and a partition or cover of it whose marked
    states fall in one atom or, when drawn so, possibly in several."""
    sys = make_disk_system(draw(st.integers(2, 4)), draw(st.integers(2, 6)))
    m = sys.state_count
    marked = sorted(sys.marked)
    one_atom = draw(st.booleans())
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
        if one_atom:
            labels[marked] = labels[marked[0]]
        return sys, SetFamily.from_labels(labels)
    count = draw(st.integers(1, 4))
    flags = np.array(draw(st.lists(st.booleans(), min_size=count * m, max_size=count * m)))
    flags = flags.reshape(count, m)
    flags[0, ~flags.any(axis=0)] = True
    if draw(st.booleans()):
        flags[-1, marked] = True  # an admissible cover, with its marked states in one atom or several
    if one_atom:
        flags[:, marked] = flags[:, [marked[0]]]
    return sys, SetFamily.from_state_sets(m, [np.flatnonzero(row) for row in flags])


def unique_marked_atoms(sys, family):
    return np.unique(family.atoms[sorted(sys.marked)])


@given(disk_families())
@settings(max_examples=200, deadline=None)
def test_marked_atoms_match_np_unique(case):
    sys, family = case
    assert coveralg._marked_atoms(sys, family).tolist() == unique_marked_atoms(sys, family).tolist()
    report = classify_admissible(sys, family)
    with mock.patch.object(coveralg, "_marked_atoms", unique_marked_atoms):
        assert report == classify_admissible(sys, family)


@given(disk_families())
@settings(max_examples=200, deadline=None)
def test_a_partition_is_admissible_iff_one_class_holds_the_marked_states(case):
    sys, family = case
    if not family.is_partition:
        with pytest.raises(ValueError, match="from a partition"):
            cover_from_partition(sys, family)
        return
    # Member i of a partition is the class labelled i.
    labels = set(family.as_labels()[sorted(sys.marked)].tolist())
    report = classify_admissible(sys, family)
    assert report.is_admissible == (len(labels) == 1)
    assert report.witness == (labels.pop() if len(labels) == 1 else None)


def test_cover_from_partition():
    sys = FiniteSystem(generators=(np.arange(6),), marked=frozenset({5}))
    part = SetFamily.from_state_sets(6, [{0, 5}, {1, 2}, {3}, {4}])
    cov = cover_from_partition(sys, part)
    assert cov.count == 3
    k0 = frozenset({0, 5})
    assert all(k0 <= s for s in family_as_sets(cov))
    rep = classify_admissible(sys, cov)
    assert rep.is_strongly_admissible

    two = SetFamily.from_state_sets(6, [{0, 5}, {1, 2, 3, 4}])
    cov2 = cover_from_partition(sys, two)
    assert cov2.count == 1
    assert family_as_sets(cov2) == {frozenset(range(6))}


def test_cover_from_partition_rejects_bad_input():
    sys = FiniteSystem(generators=(np.arange(4),), marked=frozenset({0, 3}))
    part = SetFamily.from_state_sets(4, [{0, 1}, {2, 3}])
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
        set(member_states(fam, i)) == set(range(sys.state_count))
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
        states = member_states(fam, i)
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
            states = member_states(joined, i)
            vals = [field[s] for s in states]
            assert max(vals) - min(vals) <= t * eps + 1e-12


HEIGHTS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@given(st.integers(1, 60).map(lambda k: 2 * k + 1), HEIGHTS, HEIGHTS)
@example(101, 0.0, 1.0)
@example(101, -0.0, 0.0)
@example(11, 0.3, -1.2)
@example(11, 1e300, 0.0)
@settings(max_examples=200, deadline=None)
def test_level_cover_of_an_arc_constant_potential_is_coarser_than_the_arcs(m, lower, upper):
    # A potential constant on each half-circle arc: each level member
    # depends only on the value, so it is a union of arcs, and the arcs
    # joined with the level cover are the arcs.  `doubling` relies on this
    # to skip the level cover.  Where floats cannot resolve the grid, the
    # cover refuses it with the eps and the float spacing named.
    split = (m + 1) // 2
    arcs = SetFamily.from_labels(np.arange(m) >= split)
    f = Potential(np.where(np.arange(m) >= split, upper, lower))
    assert coveralg.atom_values(arcs, f) is not None
    eps = max(float(f.values.max()) - float(f.values.min()), 1e-9) / 2.0
    try:
        levels = potential_cover(make_circle_doubling(m), f, eps)
    except ValueError as exc:
        assert "float spacing" in str(exc) or "positive and finite" in str(exc)
        return
    assert join(arcs, levels) == arcs


def test_potential_cover_refuses_a_grid_floats_cannot_resolve():
    # Values near 1e17 are 16 apart, so an eps of 8 cannot place a grid
    # interval around each of them; the cover says so before building it.
    sys = make_circle_doubling(11)
    f = Potential(np.array([1e17] * 10 + [1e17 + 16]))
    with pytest.raises(ValueError, match=r"eps = 8.0 .* float spacing is 16.0"):
        potential_cover(sys, f, 8.0)
    with pytest.raises(ValueError, match="positive and finite"):
        potential_cover(sys, f, float("inf"))
    with pytest.raises(ValueError, match="positive and finite"):
        potential_cover(sys, f, 0.0)
    # At eps = 128, over 4 x spacing, the grid resolves the 16 apart.
    assert potential_cover(sys, f, 128.0).count >= 2


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    st.floats(min_value=5e-324, allow_infinity=False),
)
@example([0.0, 0.0, 1.7120886998688722e307], 1.2e308)  # the grid's top end would overflow
@settings(max_examples=300, deadline=None)
def test_level_grid_the_check_accepts_covers_every_state(values, eps):
    # Any finite values and eps: the cover is built, members within eps, or
    # refused by the grid check, never left with a state outside every member.
    spread = float(max(values)) - float(min(values))
    assume(spread / eps < 1e4)  # the grid has about 2 spread / eps intervals
    f = Potential(np.array(values))
    try:
        fam = potential_cover(make_circle_doubling(3), f, eps)
    except ValueError as exc:
        assert "float spacing" in str(exc) or "positive and finite" in str(exc)
        return
    for i in range(fam.count):
        held = f.values[member_states(fam, i)]
        assert held.max() - held.min() < eps


@given(covered_systems(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_closeness_graph_orders_classes_as_np_unique(case, partition):
    # Classes are ordered by their lowest state: the argsort of each atom's
    # lowest state is the order `np.unique`'s first indices give.
    sys, sets, n = case
    m = sys.state_count
    family = SetFamily.from_state_sets(m, sets)
    if partition:
        family = coveralg.membership_partition(family)
    joined = orbit_join(sys, family, n, member_budget=10**6)
    _, first = np.unique(joined.atoms, return_index=True)
    want_atoms = np.argsort(first)
    want_sizes = np.bincount(joined.atoms)[want_atoms]
    graph = ClosenessGraph(joined, coveralg.lowest_states(joined))
    assert graph.class_atoms.tobytes() == want_atoms.tobytes()
    assert graph.class_sizes.tobytes() == want_sizes.tobytes()


def test_closeness_graph_extremes():
    sys = make_circle_doubling(5)
    joined = orbit_join(sys, SetFamily.singletons(5), (1,))
    g = ClosenessGraph(joined, coveralg.lowest_states(joined))
    assert g.class_adjacency() == [0] * 5
    # One class holding every state: all states are close, with no edge to draw.
    joined = orbit_join(sys, SetFamily.trivial(5), (2,))
    g2 = ClosenessGraph(joined, coveralg.lowest_states(joined))
    assert g2.class_adjacency() == [0]
    assert g2.class_sizes.tolist() == [5] and g2.holds is None


def test_closeness_components_match_itineraries():
    sys = make_circle_doubling(5)
    part = SetFamily.from_state_sets(5, [{0, 1, 2}, {3, 4}])
    joined = orbit_join(sys, part, (2,))
    g = ClosenessGraph(joined, coveralg.lowest_states(joined))
    # A partition's graph is a disjoint union of cliques, one per itinerary cell.
    assert g.class_adjacency() == [0] * joined.count
    classes = {frozenset(np.flatnonzero(joined.atoms == a).tolist()) for a in g.class_atoms}
    assert classes == family_as_sets(joined) == brute_itineraries(sys, part, (2,))


def test_closeness_graph_cover_classes():
    fam = SetFamily.from_state_sets(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    g = ClosenessGraph(fam, coveralg.lowest_states(fam))
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
        if not classify_admissible(sys, part).is_admissible:
            continue
        cover = cover_from_partition(sys, part)
        refining = join(cover, SetFamily.from_labels(rng.integers(0, 2, size=m)))
        depth = int(rng.integers(1, 4))
        joined_ref = orbit_join(sys, refining, (depth,))
        joined_part = orbit_join(sys, part, (depth,))
        for i in range(joined_ref.count):
            touched = len(set(joined_part.as_labels()[member_states(joined_ref, i)]))
            assert touched <= 2 ** box_cardinality((depth,))
